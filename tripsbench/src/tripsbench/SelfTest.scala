package tripsbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import repro.core.Schema._
import repro.gen.SynthIndoor
import scala.jdk.CollectionConverters._
import tripsbench.Workloads.{Device, NaNCoordinate, OffMapFloor}

/** Tests of the benchmark's own helpers.
  *
  *   python3 tripsbench/run.py --self-test
  *
  * Prints one line per test and exits non-zero when any fails. */
object SelfTest {

  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch {
      case e: Throwable =>
        failures += 1
        println(s"FAIL $name: $e")
    }

  private def device(i: Int, records: Int): Device = {
    val id = f"dev$i%03d"
    Device(id, Vector.tabulate(records)(k => PosRecord(id, 1000L + 5L * k, k.toDouble, i.toDouble, 0)),
           Seq.empty, Vector.empty, Vector.empty)
  }

  def main(args: Array[String]): Unit = {
    val benchmarkJson = args.headOption.getOrElse(sys.error("usage: SelfTest <BENCHMARK.json>"))

    test("median of odd and even sample counts") {
      assert(Report.median(Seq(3.0, 1.0, 2.0)) == 2.0)
      assert(Report.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    }

    test("the writer emits every metric BENCHMARK.json names, with its unit") {
      val spec = new ObjectMapper().readTree(new java.io.File(benchmarkJson))
      def named(key: String) =
        spec.get(key).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq
      assert(named("end_to_end") == Report.EndToEnd, s"end_to_end: ${named("end_to_end")}")
      assert(named("per_layer") == Report.PerLayer, s"per_layer: ${named("per_layer")}")
      for (trace <- Seq(false, true)) {
        val cat = Report.catalog(trace)
        val line = Report.json(correct = true, attempted = 3, failed = 0, trace,
                               cat.map(_._1).zipWithIndex.map { case (n, i) => n -> (i + 0.5) }.toMap)
        val metrics = new ObjectMapper().readTree(line).get("metrics")
        assert(metrics.fieldNames().asScala.toSeq == cat.map(_._1))
        cat.foreach { case (n, u) => assert(metrics.get(n).get("unit").asText() == u) }
      }
    }

    test("the writer refuses a missing or non-finite metric") {
      val names = Report.EndToEnd.map(_._1)
      val all = names.map(_ -> 1.0).toMap
      assert(scala.util.Try(Report.json(true, 1, 0, trace = false, all - names.head)).isFailure)
      assert(scala.util.Try(Report.json(true, 1, 0, trace = false, all + (names.head -> Double.NaN))).isFailure)
    }

    test("a request selects the devices of one index class that span long enough") {
      val devices = (0 until 500).map { i =>
        val id = SynthIndoor.deviceId(i)
        Device(id, Vector.tabulate(20 + i % 7)(k => PosRecord(id, 1000L + 30L * k, 0.0, 0.0, 0)),
               Seq.empty, Vector.empty, Vector.empty)
      }
      val reqs = Workloads.requests(devices, seed = 5L)
      assert(reqs.map(_.pattern) == Workloads.requests(devices, 5L).map(_.pattern), "not deterministic")
      assert(reqs.map(_.pattern).distinct.size == 8)
      assert(reqs.flatMap(_.selected).map(_.id).distinct.size == devices.count(_.raw.size > 20),
             "every long enough device in exactly one request")
      reqs.foreach { r =>
        val want = devices.filter(d => r.pattern.r.findFirstIn(d.id).isDefined && d.raw.size > 20)
        assert(r.selected.toSet == want.toSet, r.pattern)
        val cls = devices.indexWhere(_.id == r.selected.head.id) % 8
        assert(r.selected.forall(d => devices.indexWhere(_.id == d.id) % 8 == cls), r.pattern)
        assert(r.selected.contains(r.shown))
      }
    }

    test("the population is the longest device prefix within the record target") {
      val dsm = repro.gen.Mall.dsm()
      val pop = Workloads.populate(dsm, seed = 3L, threads = 2)
      val records = pop.map(_.raw.size).sum
      assert(records <= Workloads.TargetRecords, s"$records records")
      val next = Workloads.simulate(dsm, Workloads.population(3L), pop.size to pop.size, 1).head
      assert(records + next.raw.size > Workloads.TargetRecords, "the next device would still fit")
      assert(pop.map(_.id) == pop.indices.map(SynthIndoor.deviceId), "not an index prefix")
    }

    test("planted devices differ from their source in the first record only") {
      val devices = (0 until 10).map(i => device(i, 20))
      val planted = Workloads.plantHostile(devices, n = 2, seed = 3L)
      assert(planted.toString == Workloads.plantHostile(devices, 2, 3L).toString, "not deterministic in the seed")
      assert(planted.map(_._1).toSet == Set(OffMapFloor, NaNCoordinate))
      planted.foreach { case (defect, recs) =>
        val id = recs.head.deviceId
        val src = devices.find(d => d.raw.tail.map(_.copy(deviceId = id)) == recs.tail).get
        defect match {
          case OffMapFloor   => assert(recs.head == src.raw.head.copy(deviceId = id, floor = 99))
          case NaNCoordinate => assert(recs.head.x.isNaN && recs.head.y == src.raw.head.y)
        }
        assert(!devices.exists(_.id == id), "planted id collides with a real device")
      }
    }

    val spark = SparkSession.builder().master("local[2]").appName("tripsbench-selftest")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", 4)
      .config("spark.local.dir", new java.io.File("spark-local").getAbsolutePath)
      .getOrCreate()
    try {
      test("listener: per-layer task counts sum to the run's total; a shuffle shows bytes") {
        import spark.implicits._
        val sc = spark.sparkContext
        val listener = new LayerListener
        var allTasks = 0
        val counter = new SparkListener {
          override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized(allTasks += 1)
        }
        sc.addSparkListener(listener)
        sc.addSparkListener(counter)
        LayerListener.inLayer(sc, "toy") {
          (1 to 1000).map(i => (i % 7, i)).toDS().groupByKey(_._1).mapGroups((k, it) => (k, it.size)).collect()
        }
        LayerListener.inLayer(sc, "count")(spark.range(0, 100, 1, 3).count())
        spark.range(10).collect()
        val byLayer = listener.snapshot(sc)
        assert(byLayer.keySet == Set("toy", "count", LayerListener.Other), byLayer.keySet)
        assert(byLayer.values.map(_.tasks).sum == counter.synchronized(allTasks))
        assert(byLayer("toy").shuffleWriteBytes > 0 && byLayer("toy").shuffleRecords > 0)
        assert(byLayer("toy").stages >= 2 && byLayer("toy").jobs >= 1)
        sc.removeSparkListener(listener)
        sc.removeSparkListener(counter)
      }
    } finally spark.stop()

    println(if (failures == 0) "all self-tests passed" else s"$failures self-test(s) failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
