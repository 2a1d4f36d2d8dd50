#!/usr/bin/env python3
"""Build file of the TRIPS benchmark.

Compiles the program (src/main/scala, jobs/) together with the benchmark's
own sources (tripsbench/src/) with the Scala compiler that ships in the
Spark distribution, into .bench_build/tripsbench/classes. The build is
skipped when a stamp of every source file's content matches the last one.

    python3 tripsbench/build.py        # prints the class directory
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "tripsbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "jobs"),
               os.path.join(HERE, "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution at $SPARK_HOME."""
    jars = os.path.join(os.environ.get("SPARK_HOME", ""), "jars")
    if not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        raise BuildError(f"no Spark distribution at {jars!r} (set SPARK_HOME)")
    return jars


def sources():
    missing = [d for d in SOURCE_DIRS if not os.path.isdir(d)]
    if missing:
        raise BuildError("source directories missing: " + ", ".join(missing))
    files = sorted(glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
                   for d in SOURCE_DIRS)
    return [f for group in files for f in group]


def stamp(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if needed; return the class directory."""
    jars = spark_jars()
    files = sources()
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    want = stamp(files)
    if os.path.isdir(classes) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == want:
                return classes
    compiler = [glob.glob(os.path.join(jars, f"scala-{m}-2.13.*.jar"))
                for m in ("compiler", "library", "reflect")]
    if not all(compiler):
        raise BuildError(f"no Scala 2.13 compiler in {jars}")
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx1g",
           "-cp", os.pathsep.join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn",
           "-classpath", os.path.join(jars, "*"), "-d", tmp] + files
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
