package tripsbench

import repro.core._
import repro.core.Knowledge.KnowledgeModel
import repro.core.Schema._
import repro.indoor.Dsm

/** Spark-free timings of the per-device kernels and of the DSM operations
  * they call, on one thread, over a workload's own generated devices. Each
  * kernel first runs over [[WarmupDevices]] devices untimed. */
object Kernels {

  val WarmupDevices = 50

  /** Written once per run so the JIT cannot drop the timed DSM calls. */
  @volatile var blackhole = 0.0

  /** Annotated pairs of one device further apart than the gap threshold —
    * the holes the Complementor tries to fill. */
  def holes(annotated: Seq[Semantic]): Seq[(Semantic, Semantic)] =
    annotated.sortBy(_.tStart).sliding(2).collect {
      case Seq(a, b) if b.tStart - a.tEnd > Complementor.DefaultGapThreshold => (a, b)
    }.toSeq

  private def nanos[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** `buildKnowledge` turns the kernels' annotations into the prior that
    * complementDevice and mapPath need. */
  def run(dsm: Dsm, model: EventModel, devices: IndexedSeq[Vector[PosRecord]],
          buildKnowledge: Seq[Semantic] => KnowledgeModel): Map[String, Double] = {
    val warm = devices.take(WarmupDevices)
    val nRec = devices.map(_.size).sum.toDouble

    warm.foreach(d => Cleaner.cleanDevice(dsm, d))
    val (cleaned, tClean) = nanos(devices.map(d => Cleaner.cleanDevice(dsm, d)))

    cleaned.take(WarmupDevices).foreach(c => Annotator.annotateDevice(dsm, model, c))
    val (annotated, tAnnot) = nanos(cleaned.map(c => Annotator.annotateDevice(dsm, model, c)))

    val km = buildKnowledge(annotated.flatten)
    val gaps = annotated.flatMap(holes)
    require(gaps.nonEmpty, "the population has no holes to complement")
    annotated.take(WarmupDevices).foreach(a => Complementor.complementDevice(dsm, km, a))
    val (_, tCompl) = nanos(annotated.foreach(a => Complementor.complementDevice(dsm, km, a)))
    gaps.take(WarmupDevices).foreach { case (a, b) => Complementor.mapPath(dsm, km, a.regionId, b.regionId) }
    val (_, tMap) = nanos(gaps.foreach { case (a, b) => Complementor.mapPath(dsm, km, a.regionId, b.regionId) })

    val points = devices.flatMap(_.map(_.point))
    val pairs = devices.flatMap(d => d.sliding(2).collect { case Seq(a, b) => (a.point, b.point) })
    var sink = 0.0 // keeps the JIT from dropping the calls
    points.take(10000).foreach(p => sink += dsm.regionAt(p).size)
    val (_, tRegion) = nanos(points.foreach(p => sink += dsm.regionAt(p).size))
    pairs.take(10000).foreach { case (a, b) => sink += dsm.minWalkDist(a, b) }
    val (_, tWalk) = nanos(pairs.foreach { case (a, b) => sink += dsm.minWalkDist(a, b) })
    pairs.take(10000).foreach { case (a, b) => sink += dsm.alongPath(a, b, 0.5).x }
    val (_, tAlong) = nanos(pairs.foreach { case (a, b) => sink += dsm.alongPath(a, b, 0.5).x })
    blackhole = sink

    Map(
      "kernel.cleanDevice.us_per_rec" -> tClean / 1e3 / nRec,
      "kernel.annotateDevice.us_per_rec" -> tAnnot / 1e3 / nRec,
      "kernel.complementDevice.us_per_hole" -> tCompl / 1e3 / gaps.size,
      "kernel.mapPath.us_per_call" -> tMap / 1e3 / gaps.size,
      "dsm.regionAt.ns_per_call" -> tRegion.toDouble / points.size,
      "dsm.minWalkDist.us_per_call" -> tWalk / 1e3 / pairs.size,
      "dsm.alongPath.us_per_call" -> tAlong / 1e3 / pairs.size)
  }
}
