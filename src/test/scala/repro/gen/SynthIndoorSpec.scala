package repro.gen

import repro.SparkSpec
import repro.core.Schema._
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Geometry._

class SynthIndoorSpec extends SparkSpec {

  private lazy val dsm = Mall.dsm()
  private val cfg = SimConfig(nDevices = 4, seed = 9L)

  test("simulation is deterministic in (seed, index)") {
    val a = SynthIndoor.simulate(dsm, cfg, 1)
    val b = SynthIndoor.simulate(dsm, cfg, 1)
    assert(a.gt == b.gt && a.raw == b.raw && a.gaps == b.gaps)
    val c = SynthIndoor.simulate(dsm, cfg.copy(seed = 10L), 1)
    assert(c.gt != a.gt)
  }

  test("device ids look like anonymized MACs and are unique") {
    val ids = (0 until 50).map(SynthIndoor.deviceId)
    assert(ids.distinct.size == 50)
    assert(ids.forall(_.matches("([0-9a-f]{2}:){5}[0-9a-f]{2}")))
    assert(ids.forall(_.startsWith("3a:")))
  }

  test("ground truth is a contiguous 1 Hz trace") {
    val sim = SynthIndoor.simulate(dsm, cfg, 0)
    val ts = sim.gt.map(_.ts)
    assert(ts == (ts.head to ts.last).toVector)
  }

  test("ground truth points always lie in some region with matching tag") {
    val sim = SynthIndoor.simulate(dsm, cfg, 2)
    sim.gt.foreach { g =>
      val r = dsm.locate(IndoorPoint(g.x, g.y, g.floor)).map(_.region)
      assert(r.isDefined)
      assert(r.get.id == g.regionId && r.get.tag == g.tag)
    }
  }

  test("ground truth respects the indoor speed constraint") {
    val sim = SynthIndoor.simulate(dsm, cfg, 3)
    sim.gt.sliding(2).foreach { case Vector(a, b) =>
      val d = IndoorPoint(a.x, a.y, a.floor).planarDist(IndoorPoint(b.x, b.y, b.floor))
      assert(d <= 3.0, s"gt jump $d at ${a.ts}")
    }
  }

  test("ground truth events are the two paper patterns") {
    val sim = SynthIndoor.simulate(dsm, cfg, 0)
    assert(sim.gt.map(_.event).toSet.subsetOf(Set(Stay, PassBy)))
    assert(sim.gt.exists(_.event == Stay) && sim.gt.exists(_.event == PassBy))
  }

  test("observations are subsampled from the truth with noise") {
    val sim = SynthIndoor.simulate(dsm, cfg, 1)
    assert(sim.raw.size < sim.gt.size / 3)
    val gtByTs = sim.gt.map(g => g.ts -> g).toMap
    val errs = sim.raw.map(r => Pt(r.x, r.y).dist({ val g = gtByTs(r.ts); Pt(g.x, g.y) }))
    val mean = errs.sum / errs.size
    assert(mean > 0.5 && mean < 5.0, s"mean obs error $mean")
  }

  test("sampling interval is respected on average") {
    val sim = SynthIndoor.simulate(dsm, cfg, 2)
    val diffs = sim.raw.sliding(2).map { case Vector(a, b) => b.ts - a.ts }.toVector
    val mean = diffs.sum.toDouble / diffs.size
    assert(mean >= cfg.sampleInterval - 1 && mean <= cfg.sampleInterval + 60)
  }

  test("floor errors occur at roughly the configured rate") {
    val heavy = cfg.copy(floorErrProb = 0.3, nDevices = 1)
    val sims = (0 until 8).map(SynthIndoor.simulate(dsm, heavy, _))
    val all = sims.flatMap { s =>
      val byTs = s.gt.map(g => g.ts -> g.floor).toMap
      s.raw.map(r => r.floor != byTs(r.ts))
    }
    val rate = all.count(identity).toDouble / all.size
    assert(rate > 0.15 && rate < 0.45, s"floor error rate $rate")
  }

  test("timestamps fall in the demo week during opening hours") {
    val sim = SynthIndoor.simulate(dsm, cfg, 0)
    assert(sim.gt.head.ts >= WeekStart)
    assert(sim.gt.last.ts < WeekStart + 7 * SecondsPerDay)
    val startSec = (sim.gt.head.ts - WeekStart) % SecondsPerDay
    assert(startSec >= 10 * 3600)
  }

  test("gaps, when present, remove raw records inside the window") {
    val gappy = cfg.copy(gapProb = 1.0, nDevices = 1)
    val sims = (0 until 6).map(SynthIndoor.simulate(dsm, gappy, _))
    val withGap = sims.filter(_.gaps.nonEmpty)
    assert(withGap.nonEmpty)
    withGap.foreach { s =>
      s.gaps.foreach { case (g0, g1) =>
        assert(g1 - g0 >= gappy.gapMinSec)
        assert(!s.raw.exists(r => r.ts >= g0 && r.ts <= g1))
        assert(s.gt.exists(g => g.ts >= g0 && g.ts <= g1)) // truth continues
      }
    }
  }

  test("spark facade matches the per-device simulation") {
    val ds = SynthIndoor.raw(spark, dsm, cfg)
    val collected = ds.collect().groupBy(_.deviceId)
    val direct = (0 until cfg.nDevices).map(i => SynthIndoor.simulate(dsm, cfg, i))
    direct.foreach { s =>
      assert(collected(s.deviceId).sortBy(_.ts).toVector == s.raw)
    }
  }

  test("truthSemantics RLE round-trips the per-second truth") {
    val sems = SynthIndoor.truthSemantics(spark, dsm, cfg.copy(nDevices = 2)).collect()
    val sim = SynthIndoor.simulate(dsm, cfg.copy(nDevices = 2), 0)
    val mine = sems.filter(_.deviceId == sim.deviceId).sortBy(_.tStart)
    // Reconstruct per-second labels from the RLE and compare.
    val rle = mine.flatMap(s => (s.tStart to s.tEnd).map(t => t -> ((s.event, s.tag)))).toMap
    sim.gt.foreach { g => assert(rle(g.ts) == ((g.event, g.tag)), s"ts ${g.ts}") }
    // Runs alternate: no two adjacent semantics share event+region.
    mine.sliding(2).foreach {
      case Array(a, b) => assert(a.event != b.event || a.regionId != b.regionId)
      case _           => ()
    }
  }

  test("encodeTruth on empty input") {
    assert(SynthIndoor.encodeTruth("d", Seq.empty).isEmpty)
  }

  test("table1 scenario produces the scripted landmark sequence") {
    val sim = SynthIndoor.table1Scenario(dsm)
    val truth = SynthIndoor.encodeTruth("oi", sim.gt)
    val tags = truth.map(_.tag).distinct
    assert(tags.contains("Adidas") && tags.contains("Nike") && tags.contains("Cashier"))
    val events = truth.filter(s => Set("Adidas", "Nike", "Cashier").contains(s.tag))
      .filter(_.duration > 30)
    assert(events.exists(s => s.tag == "Adidas" && s.event == Stay))
    assert(events.exists(s => s.tag == "Nike" && s.event == PassBy))
    assert(events.exists(s => s.tag == "Cashier" && s.event == Stay))
  }
}
