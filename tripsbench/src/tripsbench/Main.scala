package tripsbench

import java.util.regex.Pattern
import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.config._
import repro.core._
import repro.core.Schema._
import repro.eval.Metrics
import repro.gen.Mall
import repro.indoor.Dsm
import repro.jobs.Table1Demo
import repro.viewer.Timeline
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import tripsbench.Workloads.Device

/** Runs one workload and prints its metrics as one `RESULT {json}` line.
  *
  *   tripsbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * With `--trace 0` the operations run untraced and the end-to-end metrics
  * are reported. With `--trace 1` the same operations run untraced first,
  * then once more with the layers called one at a time under a listener,
  * followed by the Spark-free kernel micro-run and the hostile-device
  * probe; the per-layer metrics are reported.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def arg(k: String) = kv.getOrElse(k, sys.error(s"missing $k"))
    val o = Options(arg("--workload"), arg("--seed").toLong, arg("--seconds").toDouble,
                    arg("--trace") == "1")
    require(Workloads.Names.contains(o.workload), s"unknown workload ${o.workload}")
    o
  }

  def main(args: Array[String]): Unit = {
    val bench = new Bench(parse(args))
    val line = try bench.run() finally bench.stop()
    println("RESULT " + line)
  }
}

final class Bench(o: Main.Options) {

  /** Spark cores: the machine's, at most 4, the core count of the
    * recorded baseline. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  // Untimed warm-up, then timed operations until --seconds of operation
  // time are measured. Heap is read after the first warm-up operations, so
  // it reflects a fixed number of operations; more warm-up operations
  // follow its full GC. The JIT does not settle within a run: it still
  // compiles on about one core while the timed operations run, and pass
  // times keep falling slowly, so a run measures many operations.
  val WarmupPasses = 3
  val PostHeapPasses = 2
  val WarmupRequests = 2
  val PostHeapRequests = 2
  val TracedRequests = 2
  val HostileDevices = 2

  private val t0 = System.nanoTime()
  private val scratch = new java.io.File(".").getCanonicalPath
  private var spark: SparkSession = _
  private var dsm: Dsm = _
  private var model: EventModel = _
  private val values = mutable.Map.empty[String, Double]
  private val problems = mutable.ArrayBuffer.empty[String]
  private var attempted = 0
  private var failed = 0

  private def log(msg: String): Unit = println(f"[${(System.nanoTime() - t0) / 1e9}%6.1f s] $msg")

  private def check(ok: Boolean, what: => String): Unit =
    if (!ok) { problems += what; log(s"CHECK FAILED: $what") }

  private def seconds[A](f: => A): (A, Double) = {
    val s = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - s) / 1e9)
  }

  private def rootMessage(e: Throwable): String =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).toSeq.last.toString.take(160)

  // ------------------------------------------------------------------ set-up

  private def session(): SparkSession = SparkSession.builder()
    .master(s"local[$cores]").appName("tripsbench")
    .config("spark.sql.shuffle.partitions", 2 * cores)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .config("spark.local.dir", s"$scratch/spark-local")
    .config("spark.sql.warehouse.dir", s"$scratch/warehouse")
    .getOrCreate()

  /** The event model, trained as in the T2–T5 benches: Event-Editor
    * segments from ground truth of 20 % of the training population. */
  private def trainModel(): EventModel = {
    val s = spark
    import s.implicits._
    val sims = Workloads.simulate(dsm, Workloads.TrainConfig, cores)
    val trainDevs = EventEditor.trainSplit(sims.map(_.id), 0.2)
    val segments = EventEditor.designateFromTruth(
      sims.filter(d => trainDevs.contains(d.id)).flatMap(_.truth), trainDevs)
    val raw = spark.createDataset(sims.filter(d => trainDevs.contains(d.id)).flatMap(_.raw))
    val cleaned = Cleaner.clean(spark, raw, spark.sparkContext.broadcast(dsm))
    EventModel.train(EventEditor.trainingData(spark, cleaned, segments).collect().toSeq)
  }

  /** SparkSession start, DSM build and event-model training; seconds. */
  private def setUp(): Double = seconds {
    if (spark != null) {
      spark.stop()
      SparkSession.clearActiveSession()
      SparkSession.clearDefaultSession()
    }
    val (_, tSession) = seconds { spark = session() }
    dsm = Mall.dsm()
    dsm.doorDist
    val (_, tTrain) = seconds { model = trainModel() }
    log(f"session $tSession%.2f s, training $tTrain%.2f s")
  }._2

  def stop(): Unit = if (spark != null) spark.stop()

  // -------------------------------------------------------------- operations

  private def batchPass(raw: Dataset[PosRecord]): Translator.Result = {
    val res = Translator.translate(spark, raw, dsm, model)
    res.semantics.count()
    res
  }

  /** The Viewer's timeline of one device: its cleaned records and its
    * semantics, collected. */
  private def view(cleaned: Dataset[CleanRecord], semantics: Dataset[Semantic], dev: String): Array[Row] = {
    val c = cleaned.toDF().filter(col("deviceId") === dev).drop("repair")
    Timeline.overlay(
      Timeline.fromPositioning(c, "cleaned"),
      Timeline.fromSemantics(semantics.toDF().filter(col("deviceId") === dev), c,
                             Timeline.TemporallyMiddle)).collect()
  }

  private def rules(pattern: String): Seq[SelectRule] =
    Seq(DeviceIdPattern(pattern), MinDuration(Workloads.MinSpanSec))

  /** One analyst request: select devices, translate them, view one. */
  private def request(table: Dataset[PosRecord], pattern: String, shown: String): (Translator.Result, Array[Row]) = {
    val s = spark
    import s.implicits._
    val selected = DataSelector.select(table.toDF(), rules(pattern)).as[PosRecord]
    val res = Translator.translate(spark, selected, dsm, model)
    (res, view(res.cleaned, res.semantics, shown))
  }

  /** Compile time of the JIT so far, summed over its threads (ms). */
  private def jitMs(): Long = java.lang.management.ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  private def heapRetainedMb(): Double = {
    System.gc()
    System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / 1e6
  }

  // ------------------------------------------------------------ correctness

  /** Every distinct (device, timestamp) of the input appears exactly once
    * among the cleaned records. */
  private def checkCleaned(devices: Seq[Device], got: Seq[(String, Long)], what: String): Unit = {
    val want = devices.iterator.flatMap(d => d.raw.iterator.map(r => (d.id, r.ts))).toSet
    check(got.size == want.size && got.toSet == want,
      s"$what: ${got.size} cleaned records (${got.toSet.size} distinct) for ${want.size} distinct inputs")
  }

  /** Each device's semantics, in sequence order, are sorted by time and do
    * not overlap. */
  private def checkSemantics(sem: Seq[Semantic], what: String): Unit =
    sem.groupBy(_.deviceId).foreach { case (dev, ss) =>
      val s = ss.sortBy(_.seqNo)
      val ok = s.map(_.seqNo) == s.indices && s.forall(x => x.tStart <= x.tEnd) &&
        s.sliding(2).forall { case Seq(a, b) => b.tStart > a.tEnd; case _ => true }
      check(ok, s"$what: semantics of $dev unsorted or overlapping")
    }

  /** The paper's Table 1 still reads stay Adidas, pass-by Nike, stay Cashier. */
  private def checkTable1(): Unit = {
    val text = Table1Demo.run(spark)
    val wanted = Seq("(stay, Adidas,", "(pass-by, Nike,", "(stay, Cashier,")
    val at = wanted.map(w => text.indexOf(w))
    check(at.forall(_ >= 0) && at == at.sorted, s"Table 1 lost its triplets:\n$text")
  }

  // ----------------------------------------------------------------- quality

  private def quality(devices: Seq[Device], semantics: Seq[Semantic], cleaned: DataFrame): Unit = {
    val s = spark
    import s.implicits._
    val truth = spark.createDataset(devices.flatMap(_.truth)).cache()
    val sem = spark.createDataset(semantics).cache()
    val gt = spark.createDataset(devices.flatMap(_.gtAtRecords))
    val gaps = devices.flatMap(d => d.gaps.map(g => (d.id, g._1, g._2)))
      .toDF("device_id", "g_start", "g_end")
    val cl = cleaned.drop("repair")
    // Untimed and independent of each other: run the three scorings at once.
    implicit val ec: ExecutionContext = ExecutionContext.global
    val scores = Future.sequence(Seq(
      Future("event_region_acc" -> Metrics.agreement(spark, sem, truth).bothAccuracy),
      Future("gap_region_acc" -> Metrics.gapRecovery(spark, sem, truth, gaps).accuracy),
      Future("clean_pos_err_m" -> Metrics.posError(spark, cl, gt).meanErr)))
    values ++= Await.result(scores, Duration.Inf)
    truth.unpersist()
    sem.unpersist()
  }

  // ------------------------------------------------------------------- runs

  def run(): String = {
    val setups = (1 to (if (o.trace) 1 else 3)).map { i =>
      val s = setUp()
      log(f"set-up $i: $s%.2f s")
      s
    }
    values("setup_s") = Report.median(setups)
    val listener = new LayerListener
    spark.sparkContext.addSparkListener(listener)

    val s = spark
    import s.implicits._
    val ((devices, table, nRecords), genS) = seconds {
      val devices = Workloads.populate(dsm, o.seed, cores)
      val table = spark.createDataset(devices.flatMap(_.raw)).cache()
      (devices, table, table.count())
    }
    values("input.gen_ms") = genS * 1e3
    values("input.records") = nRecords.toDouble
    log(f"generated ${devices.size} devices, $nRecords records in $genS%.2f s")

    val opMs = o.workload match {
      case "degraded-week" => degradedWeek(devices, table, nRecords)
      case "analyst-loop"  => analystLoop(devices, table)
    }
    if (o.trace) {
      values("trace.overhead_ms") = tracedOpMs / tracedOps - opMs
      log("kernel micro-run")
      values ++= Kernels.run(dsm, model, devices.map(_.raw),
        ann => Knowledge.build(spark, spark.createDataset(ann)))
      values("hostile.failed_frac") = hostileProbe(devices)
      values ++= layerFigures(listener)
      checkTable1()
    }
    log(s"checks: ${if (problems.isEmpty) "all passed" else problems.size + " failed"}")
    Report.json(problems.isEmpty, attempted, failed, o.trace, values.toMap)
  }

  /** Records the end-to-end timing metrics; returns the median op (ms). */
  private def timings(opSeconds: Seq[Double], records: Seq[Long]): Double = {
    require(opSeconds.nonEmpty, "no operation succeeded")
    val p50 = Report.median(opSeconds) * 1e3
    values("op_ms_p50") = p50
    values("throughput_rec_per_s") = Report.median(records.zip(opSeconds).map { case (r, t) => r / t })
    log(f"${opSeconds.size} timed ops, median $p50%.0f ms, ${opSeconds.sum}%.1f s measured")
    p50
  }

  private def attempt[A](what: String)(f: => A): Option[A] = {
    attempted += 1
    try Some(f) catch {
      case e: Exception =>
        failed += 1
        log(s"$what failed: ${rootMessage(e)}")
        None
    }
  }

  private def degradedWeek(devices: Vector[Device], raw: Dataset[PosRecord], nRecords: Long): Double = {
    val s = spark
    import s.implicits._
    def warmUp(passes: Range): Unit =
      passes.foreach(i => log(f"warm-up pass $i: ${seconds(batchPass(raw))._2}%.2f s"))
    warmUp(1 to WarmupPasses)
    values("heap_retained_mb") = heapRetainedMb()
    warmUp(WarmupPasses + 1 to WarmupPasses + PostHeapPasses)
    val times = mutable.ArrayBuffer.empty[Double]
    var last: Option[Translator.Result] = None
    val jit0 = jitMs()
    while (attempted == 0 || (times.sum < o.seconds && failed == 0)) {
      attempt("translation")(seconds(batchPass(raw))).foreach { case (r, t) => times += t; last = Some(r) }
    }
    log(s"JIT compile time during timing: ${jitMs() - jit0} ms")
    log("pass times: " + times.map(t => f"$t%.2f").mkString(" "))
    val p50 = timings(times.toSeq, times.toSeq.map(_ => nRecords))
    last.foreach { res =>
      val sem = res.semantics.collect().toSeq
      val keys = res.cleaned.select("deviceId", "ts").as[(String, Long)].collect().toSeq
      checkCleaned(devices, keys, "translation")
      checkSemantics(sem, "translation")
      if (!o.trace) quality(devices, sem, res.cleaned.toDF())
      log("quality scored")
    }
    if (o.trace) {
      val byRecords = devices.sortBy(d => (d.raw.size, d.id))
      val t = tracedTranslation(raw, Seq(OperatingHours(10, 22)), byRecords(byRecords.size / 2).id,
                                Set("clean", "annotate", "knowledge", "complement"))
      checkCleaned(devices, t.cleaned.map(x => (x.deviceId, x.ts)), "traced translation")
      checkSemantics(t.semantics, "traced translation")
    }
    p50
  }

  private def analystLoop(devices: Vector[Device], table: Dataset[PosRecord]): Double = {
    val s = spark
    import s.implicits._
    // The analyst goes through the request classes in a seeded order and
    // starts over when all have been served.
    val classes = Workloads.requests(devices, o.seed)
    def requests(from: Int, n: Int) = (from until from + n).map(k => classes(k % classes.size))
    def run(r: Workloads.Request) = request(table, r.pattern, r.shown.id)
    val scored = mutable.Set.empty[String]
    val served = mutable.ArrayBuffer.empty[Device]
    val sem = mutable.ArrayBuffer.empty[Semantic]
    val cleaned = mutable.ArrayBuffer.empty[CleanRecord]
    /** Checks a request's output and keeps it for scoring (untimed), once
      * per request class. */
    def keep(r: Workloads.Request, res: Translator.Result, rows: Array[Row]): Unit = {
      check(rows.nonEmpty, s"request for ${r.shown.id} returned an empty view")
      val (sm, c) = (res.semantics.collect().toSeq, res.cleaned.collect().toSeq)
      checkCleaned(r.selected, c.map(x => (x.deviceId, x.ts)), s"request for ${r.shown.id}")
      checkSemantics(sm, s"request for ${r.shown.id}")
      if (scored.add(r.pattern)) {
        served ++= r.selected
        sem ++= sm
        cleaned ++= c
      }
    }
    def warmUp(rs: Seq[Workloads.Request]): Unit = rs.foreach { r =>
      val ((res, rows), t) = seconds(run(r))
      log(f"warm-up request ${r.pattern}: $t%.2f s")
      keep(r, res, rows)
    }
    warmUp(requests(0, WarmupRequests))
    values("heap_retained_mb") = heapRetainedMb()
    warmUp(requests(WarmupRequests, PostHeapRequests))
    val times = mutable.ArrayBuffer.empty[Double]
    val records = mutable.ArrayBuffer.empty[Long]
    val firstTimed = WarmupRequests + PostHeapRequests
    var next = firstTimed
    val jit0 = jitMs()
    while (next == firstTimed || (times.sum < o.seconds && failed == 0)) {
      val r = requests(next, 1).head
      attempt(s"request for ${r.shown.id}")(seconds(run(r))).foreach { case ((res, rows), t) =>
        times += t
        records += r.selected.map(_.raw.size.toLong).sum
        log(f"request ${r.pattern}: ${r.selected.size} devices, ${records.last} records, $t%.2f s")
        keep(r, res, rows)
      }
      next += 1
    }
    log(s"JIT compile time during timing: ${jitMs() - jit0} ms")
    log("request times: " + times.map(t => f"$t%.2f").mkString(" "))
    val p50 = timings(times.toSeq, records.toSeq)
    if (!o.trace) quality(served.toSeq, sem.toSeq, spark.createDataset(cleaned.toSeq).toDF())
    if (o.trace) {
      val traced = requests(next, TracedRequests).map { r =>
        val t = tracedTranslation(table, rules(r.pattern), r.shown.id, Report.Layers.toSet)
        checkCleaned(r.selected, t.cleaned.map(x => (x.deviceId, x.ts)), s"traced request for ${r.shown.id}")
        checkSemantics(t.semantics, s"traced request for ${r.shown.id}")
        t
      }
      check(traced.forall(_.viewRows > 0), "a traced request returned an empty view")
    }
    p50
  }

  // ------------------------------------------------------------------ trace

  final case class Traced(cleaned: Seq[CleanRecord], semantics: Seq[Semantic], viewRows: Int)

  private val layerWallMs = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private val layerOut = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private val counts = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private var tracedOps = 0
  private var tracedOpMs = 0.0

  /** One translation with the layers called one at a time, each under its
    * own job group with its output cached and counted. `opLayers` are the
    * layers the untraced operation runs; their traced wall time minus the
    * untraced median is the tracing overhead. */
  private def tracedTranslation(table: Dataset[PosRecord], rules: Seq[SelectRule], viewDevice: String,
                                opLayers: Set[String]): Traced = {
    val s = spark
    import s.implicits._
    val sc = spark.sparkContext
    def layer[A](name: String)(f: => A): A = {
      val (a, t) = seconds(LayerListener.inLayer(sc, name)(f))
      layerWallMs(name) += t * 1e3
      if (opLayers.contains(name)) tracedOpMs += t * 1e3
      a
    }
    def out(name: String, n: Long): Unit = layerOut(name) += n.toDouble

    val b = sc.broadcast(dsm)
    val selected = layer("select") {
      val d = DataSelector.select(table.toDF(), rules).as[PosRecord].cache(); out("select", d.count()); d
    }
    val cleaned = layer("clean") {
      val d = Cleaner.clean(spark, selected, b).cache(); out("clean", d.count()); d
    }
    val annotated = layer("annotate") {
      val d = Annotator.annotate(spark, cleaned, b, model).cache(); out("annotate", d.count()); d
    }
    val km = layer("knowledge") {
      val k = Knowledge.build(spark, annotated); out("knowledge", k.transitions.size.toLong); k
    }
    val semantics = layer("complement") {
      val d = Complementor.complement(spark, annotated, b, sc.broadcast(km)).cache()
      out("complement", d.count()); d
    }
    val rows = layer("view") { val r = view(cleaned, semantics, viewDevice); out("view", r.length.toLong); r }

    val (cl, ann, sem) = LayerListener.inLayer(sc, "stats") {
      (cleaned.collect().toSeq, annotated.collect().toSeq, semantics.collect().toSeq)
    }
    Seq("floor", "interp", "reanchor").foreach(k => counts(s"clean.repair_$k") += cl.count(_.repair == k))
    counts("knowledge.transitions") += km.transitions.values.sum.toDouble
    val inferred = sem.filter(_.source == "inferred")
    val holes = ann.groupBy(_.deviceId).values.flatMap(Kernels.holes).toSeq
    counts("complement.holes") += holes.size
    counts("complement.holes_filled") += holes.count { case (a, z) =>
      inferred.exists(i => i.deviceId == a.deviceId && i.tStart > a.tEnd && i.tEnd < z.tStart)
    }
    counts("complement.inferred_out") += inferred.size
    tracedOps += 1
    Seq(selected, cleaned, annotated, semantics).foreach(_.unpersist())
    Traced(cl, sem, rows.length)
  }

  /** Per-layer figures, per traced operation. */
  private def layerFigures(listener: LayerListener): Map[String, Double] = {
    val byLayer = listener.snapshot(spark.sparkContext)
    val n = tracedOps.toDouble
    val perLayer = Report.Layers.flatMap { l =>
      val t = byLayer.getOrElse(l, new listener.Totals)
      Seq(
        s"$l.wall_ms" -> layerWallMs(l) / n,
        s"$l.jobs" -> t.jobs / n,
        s"$l.stages" -> t.stages / n,
        s"$l.tasks" -> t.tasks / n,
        s"$l.shuffle_write_mb" -> t.shuffleWriteBytes / 1e6 / n,
        s"$l.shuffle_records" -> t.shuffleRecords / n,
        s"$l.cpu_ms" -> t.cpuNs / 1e6 / n,
        s"$l.gc_ms" -> t.gcMs / n,
        s"$l.task_skew" -> t.taskSkew,
        s"$l.records_out" -> layerOut(l) / n)
    }
    val holes = counts("complement.holes")
    perLayer.toMap ++ counts.map { case (k, v) => k -> v / n } +
      ("complement.fill_ratio" -> (if (holes == 0) 0.0 else counts("complement.holes_filled") / holes))
  }

  // --------------------------------------------------------------- hostile

  /** Requests for devices planted with a malformed first record; the share
    * of them that fail. */
  private def hostileProbe(devices: Seq[Device]): Double = {
    val s = spark
    import s.implicits._
    val planted = Workloads.plantHostile(devices, HostileDevices, o.seed)
    val table = spark.createDataset(planted.flatMap(_._2)).cache()
    val failures = planted.count { case (defect, recs) =>
      val id = recs.head.deviceId
      try { request(table, "^" + Pattern.quote(id) + "$", id); false }
      catch {
        case e: Exception =>
          log(s"hostile device ($defect) failed: ${rootMessage(e)}")
          true
      }
    }
    table.unpersist()
    failures.toDouble / planted.size
  }
}
