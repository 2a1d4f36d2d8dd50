package tripsbench

/** The metrics the benchmark reports, by name and unit, and the JSON line
  * that carries them. BENCHMARK.json names the same metrics; run.py and
  * [[SelfTest]] check that the two agree. */
object Report {

  val Layers: Seq[String] = Seq("select", "clean", "annotate", "knowledge", "complement", "view")

  /** Spark-side figures recorded for every layer in the traced run. */
  val LayerFigures: Seq[(String, String)] = Seq(
    "wall_ms" -> "ms", "jobs" -> "count", "stages" -> "count", "tasks" -> "count",
    "shuffle_write_mb" -> "MB", "shuffle_records" -> "count", "cpu_ms" -> "ms",
    "gc_ms" -> "ms", "task_skew" -> "ratio", "records_out" -> "count")

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "op_ms_p50" -> "ms",
    "throughput_rec_per_s" -> "rec/s",
    "heap_retained_mb" -> "MB",
    "event_region_acc" -> "fraction",
    "gap_region_acc" -> "fraction",
    "clean_pos_err_m" -> "m")

  val PerLayer: Seq[(String, String)] =
    Layers.flatMap(l => LayerFigures.map { case (f, u) => s"$l.$f" -> u }) ++ Seq(
      "clean.repair_floor" -> "count",
      "clean.repair_interp" -> "count",
      "clean.repair_reanchor" -> "count",
      "knowledge.transitions" -> "count",
      "complement.holes" -> "count",
      "complement.holes_filled" -> "count",
      "complement.fill_ratio" -> "fraction",
      "complement.inferred_out" -> "count",
      "trace.overhead_ms" -> "ms",
      "kernel.cleanDevice.us_per_rec" -> "us",
      "kernel.annotateDevice.us_per_rec" -> "us",
      "kernel.complementDevice.us_per_hole" -> "us",
      "kernel.mapPath.us_per_call" -> "us",
      "dsm.regionAt.ns_per_call" -> "ns",
      "dsm.minWalkDist.us_per_call" -> "us",
      "dsm.alongPath.us_per_call" -> "us",
      "input.gen_ms" -> "ms",
      "input.records" -> "count",
      "hostile.failed_frac" -> "fraction")

  def catalog(trace: Boolean): Seq[(String, String)] = if (trace) PerLayer else EndToEnd

  /** The result line: every catalogued metric, in catalogue order. Fails
    * when a metric is missing or not a finite number. */
  def json(correct: Boolean, attempted: Int, failed: Int, trace: Boolean,
           values: Map[String, Double]): String = {
    val metrics = catalog(trace).map { case (name, unit) =>
      val v = values.getOrElse(name, sys.error(s"metric $name was not measured"))
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
      s""""$name": {"value": $v, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.mkString(", ")}}}"""
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
