package tripsbench

import repro.core.Schema._
import repro.gen.SynthIndoor
import repro.gen.SynthIndoor.{DeviceSim, SimConfig}
import repro.indoor.Dsm
import java.util.concurrent.{Executors, TimeUnit}
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.util.Random

/** Inputs of the benchmark, all generated from the seed before timing.
  *
  * Both workloads translate one population: some 250 simulated devices
  * over the demo week with the degraded sensor model of T4 — 5 % heavy
  * outliers, 8 % wrong floors and one 120–420 s detection gap on every
  * device — so the Cleaner repairs often and every device leaves a hole for
  * the Complementor. `degraded-week` translates the whole population at
  * once; `analyst-loop` translates it a selected group of devices at a time.
  */
object Workloads {

  val Names: Seq[String] = Seq("degraded-week", "analyst-loop")

  /** Raw records of the evaluated population. Devices are taken in index
    * order while they fit, so every seed gives the same input size to
    * within one device (about 250 devices). */
  val TargetRecords = 87500

  /** The event model's training population (as in the T2–T5 benches). */
  val TrainConfig: SimConfig = SimConfig(nDevices = 100, seed = 77L)

  /** The evaluated population's simulator settings. Its simulator seed is
    * even, so it never equals the training population's seed 77. */
  def population(seed: Long): SimConfig =
    SimConfig(nDevices = 0, seed = 2 * seed, outlierProb = 0.05,
              floorErrProb = 0.08, gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)

  /** The evaluated population: the longest prefix of the devices of
    * `population(seed)` that holds at most [[TargetRecords]] raw records. */
  def populate(dsm: Dsm, seed: Long, threads: Int): Vector[Device] = {
    val cfg = population(seed)
    val block = 32
    val devices = Vector.newBuilder[Device]
    var (from, records) = (0, 0L)
    while (records <= TargetRecords) {
      val more = simulate(dsm, cfg, from until from + block, threads)
      devices ++= more
      records += more.map(_.raw.size.toLong).sum
      from += block
    }
    val all = devices.result()
    val fits = all.scanLeft(0L)(_ + _.raw.size).tail.takeWhile(_ <= TargetRecords).size
    all.take(fits)
  }

  /** The analyst's selection rule besides the device id (the walkthrough's
    * minimum sequence length, s). */
  val MinSpanSec = 600L

  /** What the benchmark keeps of a simulated device: its raw records, the
    * ground truth the quality metrics need, and nothing of the 1 Hz trace
    * beyond the seconds that have a raw record. */
  final case class Device(id: String, raw: Vector[PosRecord], truth: Seq[Semantic],
                          gaps: Vector[(Long, Long)], gtAtRecords: Vector[GtRecord])

  private def keep(s: DeviceSim): Device = {
    val ts = s.raw.iterator.map(_.ts).toSet
    Device(s.deviceId, s.raw, SynthIndoor.encodeTruth(s.deviceId, s.gt), s.gaps,
           s.gt.filter(g => ts.contains(g.ts)))
  }

  /** Simulate every device of `cfg` on `threads` threads; devices in index
    * order. */
  def simulate(dsm: Dsm, cfg: SimConfig, threads: Int): Vector[Device] =
    simulate(dsm, cfg, 0 until cfg.nDevices, threads)

  /** Simulate the devices of `cfg` with the given indices on `threads`
    * threads; devices in index order. */
  def simulate(dsm: Dsm, cfg: SimConfig, indices: Range, threads: Int): Vector[Device] = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      val all = Future.traverse(indices.toVector)(i =>
        Future(keep(SynthIndoor.simulate(dsm, cfg, i))))
      Await.result(all, Duration.Inf)
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  private def spansLongEnough(d: Device): Boolean =
    d.raw.nonEmpty && d.raw.last.ts - d.raw.head.ts >= MinSpanSec

  /** One analyst request: the Data Selector's device-id rule `pattern`
    * plus the minimum span, the devices they select, and the one whose
    * timeline the analyst then views. */
  final case class Request(pattern: String, selected: Vector[Device], shown: Device)

  /** The analyst's requests, in a seeded order. Request j selects the
    * devices whose index is j modulo 8 (the last hex digit of the id's
    * fifth byte is j or j + 8), some 30 devices: enough that the records per
    * request and the quality of what the requests return vary little
    * between seeds, and still a tiny job. The analyst views the device of
    * median length. */
  def requests(devices: Seq[Device], seed: Long): Vector[Request] =
    new Random(seed).shuffle((0 until 8).toVector).map { j =>
      val pattern = f"^3a:..:..:..:.[$j%x${j + 8}%x]:0.$$"
      val re = pattern.r
      val selected = devices.filter(d => re.findFirstIn(d.id).isDefined && spansLongEnough(d))
        .sortBy(d => (d.raw.size, d.id)).toVector
      Request(pattern, selected, selected(selected.size / 2))
    }

  /** The two malformations a hostile device carries on its first record. */
  sealed trait Defect
  /** A floor the DSM does not have. */
  case object OffMapFloor extends Defect
  /** A NaN x coordinate. */
  case object NaNCoordinate extends Defect

  /** Copies of `n` seeded picks of `sims`, renamed, with a malformed first
    * record. The defects alternate; the seed chooses which comes first. */
  def plantHostile(sims: Seq[Device], n: Int, seed: Long): Vector[(Defect, Vector[PosRecord])] = {
    val rng = new Random(seed ^ 0x6057L)
    val defects = if (rng.nextBoolean()) Vector(OffMapFloor, NaNCoordinate) else Vector(NaNCoordinate, OffMapFloor)
    rng.shuffle(sims.filter(_.raw.size > 1).toVector).take(n).zipWithIndex.map { case (s, k) =>
      val defect = defects(k % 2)
      val id = f"ff:00:00:00:00:$k%02x"
      val first = s.raw.head.copy(deviceId = id)
      val bad = defect match {
        case OffMapFloor   => first.copy(floor = 99)
        case NaNCoordinate => first.copy(x = Double.NaN)
      }
      (defect, bad +: s.raw.tail.map(_.copy(deviceId = id)))
    }
  }
}
