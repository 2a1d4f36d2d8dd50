package repro.indoor

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.gen.Mall
import repro.indoor.Geometry._

/** Randomized laws of the DSM's location rule and indoor walking distance
  * over the 7-floor mall. Random points mix positions inside the walls,
  * exact region boundaries (where regions touch), points outside the walls
  * and points on a floor the mall lacks; pairs often span floors. */
object DsmProps extends Properties("Dsm") {

  private val dsm = Mall.dsm()

  private val inside = for {
    x <- Gen.chooseNum(0.0, Mall.FloorWidth); y <- Gen.chooseNum(0.0, Mall.FloorDepth)
  } yield Pt(x, y)
  private val onBoundary = for {
    x <- Gen.oneOf((0 to 20).map(_ * 5.0)); y <- Gen.oneOf(0.0, 15.0, 25.0, 40.0, 7.5, 20.0)
  } yield Pt(x, y)
  private val outside = for {
    x <- Gen.chooseNum(-30.0, Mall.FloorWidth + 30); y <- Gen.chooseNum(-30.0, Mall.FloorDepth + 30)
    if x < 0 || x > Mall.FloorWidth || y < 0 || y > Mall.FloorDepth
  } yield Pt(x, y)

  private val pointGen: Gen[IndoorPoint] = for {
    xy <- Gen.frequency(5 -> inside, 2 -> onBoundary, 3 -> outside)
    floor <- Gen.frequency(19 -> Gen.choose(0, Mall.Floors - 1), 1 -> Gen.const(Mall.Floors))
  } yield IndoorPoint(xy.x, xy.y, floor)

  /** Both points on one floor (of the mall). */
  private val sameFloorPair = for {
    a <- pointGen; b <- pointGen; f <- Gen.choose(0, Mall.Floors - 1)
  } yield (a.copy(floor = f), b.copy(floor = f))

  private def close(x: Double, y: Double): Boolean =
    x == y || math.abs(x - y) <= 1e-9 * math.max(math.abs(x), math.abs(y))

  /** The location rule written out: the smallest region containing `p`,
    * else the nearest one with `p` clamped into it. */
  private def located(p: IndoorPoint): Option[(IndoorPoint, Region)] = {
    val rs = dsm.regionsOnFloor(p.floor)
    if (rs.isEmpty) None
    else {
      val r = dsm.regionAt(p).getOrElse(rs.minBy(_.rect.dist(p.pt)))
      val q = r.rect.clamp(p.pt)
      Some((IndoorPoint(q.x, q.y, p.floor), r))
    }
  }

  private val doorIdx: Map[String, Int] = dsm.doors.map(_.id).zipWithIndex.toMap

  /** Plain Dijkstra from `a0` to `b0`: the reference for `minWalkDist`.
    * Nodes are the doors plus both endpoints. An endpoint is joined to the
    * doors of its region (and to the other endpoint in a shared region);
    * two doors are joined when they share a region. Passing a door costs
    * its crossCost on top of the planar distance. */
  private def dijkstra(a0: IndoorPoint, b0: IndoorPoint): Double =
    (located(a0), located(b0)) match {
      case (Some((a, ra)), Some((b, rb))) =>
        val n = dsm.doors.size
        val (src, dst) = (n, n + 1)
        def edges(u: Int): Seq[(Int, Double)] =
          if (u == src) {
            (if (ra.id == rb.id) Seq(dst -> a.planarDist(b)) else Nil) ++
              dsm.doorsOfRegion(ra.id).map(d => doorIdx(d.id) -> (a.pt.dist(d.pt) + d.crossCost))
          } else if (u == dst) Nil
          else {
            val d = dsm.doors(u)
            Seq(d.regionA, d.regionB).flatMap(dsm.doorsOfRegion).filter(_.id != d.id)
              .map(e => doorIdx(e.id) -> (d.pt.dist(e.pt) + e.crossCost)) ++
              (if (d.connects(rb.id)) Seq(dst -> d.pt.dist(b.pt)) else Nil)
          }
        val dist = Array.fill(n + 2)(Double.PositiveInfinity)
        val done = Array.fill(n + 2)(false)
        dist(src) = 0.0
        var u = src
        while (u >= 0 && u != dst) {
          done(u) = true
          for ((v, w) <- edges(u) if dist(u) + w < dist(v)) dist(v) = dist(u) + w
          val open = dist.indices.filter(v => !done(v) && dist(v).isFinite)
          u = if (open.isEmpty) -1 else open.minBy(dist(_))
        }
        dist(dst)
      case _ => Double.PositiveInfinity
    }

  property("minWalkDist is symmetric") = forAll(pointGen, pointGen) { (a, b) =>
    close(dsm.minWalkDist(a, b), dsm.minWalkDist(b, a))
  }

  property("minWalkDist is at least the planar distance on one floor") =
    forAll(sameFloorPair) { case (a, b) =>
      val d = dsm.minWalkDist(a, b)
      (located(a), located(b)) match {
        case (Some((la, _)), Some((lb, _))) =>
          val planar = la.planarDist(lb)
          Prop(d >= planar || close(d, planar)) :| s"walk $d < planar $planar"
        case _ => Prop(d.isInfinity)
      }
    }

  property("minWalkDist equals Dijkstra over the door graph") = forAll(pointGen, pointGen) {
    (a, b) =>
      val (d, ref) = (dsm.minWalkDist(a, b), dijkstra(a, b))
      Prop(close(d, ref)) :| s"minWalkDist $d, Dijkstra $ref"
  }

  property("walkPathWeighted step costs sum to minWalkDist") = forAll(pointGen, pointGen) {
    (a, b) =>
      val d = dsm.minWalkDist(a, b)
      dsm.walkPathWeighted(a, b) match {
        case Some(steps) => Prop(close(steps.map(_.cost).sum, d)) :| s"steps vs $d"
        case None        => Prop(d.isInfinity)
      }
  }

  property("locate places the point inside its region") = forAll(pointGen) { p =>
    dsm.locate(p) match {
      case Some(Location(q, r)) => r.contains(q)
      case None                 => dsm.regionsOnFloor(p.floor).isEmpty
    }
  }

  property("locate keeps an in-wall point and its regionAt region") = forAll(pointGen) { p =>
    dsm.regionAt(p) match {
      case Some(r) => dsm.locate(p).contains(Location(p, r))
      case None    => true
    }
  }
}
