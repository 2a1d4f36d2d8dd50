#!/usr/bin/env python3
"""The TRIPS benchmark: one command, one workload per invocation.

    python3 tripsbench/run.py --workload degraded-week --seed 1 --seconds 14 --trace 0
    python3 tripsbench/run.py --self-test

Builds the program and the benchmark (build.py), runs the workload in one
JVM (tripsbench.Main), checks the reported metrics against BENCHMARK.json,
prints them as a table with units and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.
Exits non-zero when the build fails, the run fails, or a correctness check
fails.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import build  # noqa: E402  (after the bytecode switch)

HERE = build.HERE
ROOT = build.ROOT
RUN_TIMEOUT_S = 170
JVM_FLAGS = [f"--add-opens={m}=ALL-UNNAMED" for m in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5")] + [
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
    "-Xmx3g", "-Xss4m"]


def fail(msg, code=1):
    sys.stderr.write(f"tripsbench: {msg}\n")
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def java(classes, main, args, scratch):
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")])
    cmd = (["java"] + JVM_FLAGS +
           [f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-cp", cp, main] + args)
    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{main} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # On a timeout or a signal the JVM must not outlive the benchmark.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def check_metrics(result, expected):
    """The run must report exactly the metrics BENCHMARK.json names, with
    the same units, as finite numbers."""
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    errors = []
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
    return errors


def main():
    # Turn SIGTERM into an exit, so the cleanup in java() runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    try:
        spec = load_spec()
        classes = build.build()
    except (OSError, ValueError, build.BuildError) as e:
        fail(f"cannot build: {e}", 2)
    scratch = os.path.join(build.OUT, "run")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        if a.self_test:
            code, out = java(classes, "tripsbench.SelfTest",
                             [os.path.join(ROOT, "BENCHMARK.json")], scratch)
            sys.stdout.write(out)
            sys.exit(code)

        names = [w["name"] for w in spec["workloads"]]
        if a.workload not in names:
            fail(f"--workload must be one of {names}", 2)
        t0 = time.time()
        code, out = java(classes, "tripsbench.Main",
                         ["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace)], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.splitlines()
    results = [l[len("RESULT "):] for l in lines if l.startswith("RESULT ")]
    for l in lines:
        if not l.startswith("RESULT "):
            sys.stderr.write(l + "\n")
    if code != 0 or len(results) != 1:
        fail(f"benchmark JVM exited with {code} and {len(results)} result lines")
    result = json.loads(results[0])
    errors = check_metrics(result, spec["per_layer" if a.trace else "end_to_end"])
    if errors:
        fail("; ".join(errors))

    print(f"# {a.workload} seed={a.seed} trace={a.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} wall={time.time() - t0:.1f}s")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
