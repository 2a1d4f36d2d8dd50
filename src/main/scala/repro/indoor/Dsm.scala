package repro.indoor

import repro.indoor.Geometry._

/** An indoor entity with practical semantics — a room, corridor segment or
  * staircase — modelled as an axis-aligned rectangle on one floor.
  *
  * @param id    unique region id, e.g. `"f2_shop_03"`
  * @param floor 0-based floor index
  * @param rect  footprint in metres
  * @param tag   semantic tag assigned through the Space Modeler
  *              (e.g. `"Adidas"`, `"Corridor"`); the spatial annotation of a
  *              mobility semantics is such a tag
  * @param kind  entity kind: `"room"`, `"corridor"` or `"staircase"`
  */
final case class Region(id: String, floor: Int, rect: Rect, tag: String, kind: String) {
  def contains(p: IndoorPoint): Boolean = p.floor == floor && rect.contains(p.pt)
  def center: IndoorPoint = IndoorPoint(rect.center.x, rect.center.y, floor)
}

/** A door connecting exactly two regions.
  *
  * A normal door joins two regions on the same floor at a wall point. A
  * staircase connector joins the stair region on floor f with the one on
  * floor f+1 at the same (x, y); traversing it costs `crossCost` extra
  * metres of walking (the stair run), which is how inter-floor distance
  * enters the minimum indoor walking distance.
  */
final case class Door(id: String, regionA: String, regionB: String,
                      x: Double, y: Double, crossCost: Double = 0.0) {
  def pt: Pt = Pt(x, y)
  def connects(r: String): Boolean = r == regionA || r == regionB
  def other(r: String): String = if (r == regionA) regionB else regionA
}

/** A point placed in the DSM by [[Dsm.locate]]: `point` lies inside
  * `region` (clamped there when the raw point was outside the walls). */
final case class Location(point: IndoorPoint, region: Region)

/** Digital Space Model: the semi-structured model produced by the Space
  * Modeler (paper §2/§3). It records geometric attributes and topological
  * relations of indoor entities, the semantic regions, and supports the
  * spatial computations of the Cleaning layer:
  *
  *  - `locate` — the one location rule: a point inside the walls gets the
  *    smallest-area region containing it; a point outside them is clamped
  *    into the nearest region on its floor (spatial matching, and the
  *    endpoints of every distance and path); `regionAt` is its in-wall part;
  *  - `minWalkDist` — the minimum indoor walking distance between two
  *    indoor points, respecting walls, doors and staircases (used for the
  *    speed-constraint check, per Yang et al. as cited by the paper);
  *  - `walkPathWeighted` / `alongPath` — the corresponding shortest indoor
  *    path, used by the location-interpolation repair.
  *
  * Distances and paths share one door-pair search over a precomputed
  * all-pairs door matrix (Floyd–Warshall). Callers that check one point
  * many times locate it once and pass the [[Location]]. The DSM is small
  * (hundreds of doors) and driver-side; Spark tasks receive it via
  * closure/broadcast.
  */
final class Dsm(val regions: IndexedSeq[Region], val doors: IndexedSeq[Door])
    extends Serializable {

  require(regions.map(_.id).distinct.size == regions.size, "duplicate region ids")
  require(doors.map(_.id).distinct.size == doors.size, "duplicate door ids")
  doors.foreach { d =>
    require(regionById.contains(d.regionA) && regionById.contains(d.regionB),
            s"door ${d.id} references unknown region")
  }

  @transient lazy val regionById: Map[String, Region] =
    regions.map(r => r.id -> r).toMap

  @transient lazy val regionsOnFloor: Map[Int, IndexedSeq[Region]] =
    regions.groupBy(_.floor).withDefaultValue(IndexedSeq.empty)

  /** Doors incident to each region. */
  @transient lazy val doorsOfRegion: Map[String, IndexedSeq[Door]] = {
    val m = doors.flatMap(d => Seq(d.regionA -> d, d.regionB -> d))
    m.groupBy(_._1).map { case (r, xs) => r -> xs.map(_._2) }.withDefaultValue(IndexedSeq.empty)
  }

  /** Region adjacency derived from shared doors (a topological relation). */
  @transient lazy val adjacentRegions: Map[String, Set[String]] =
    doors.flatMap(d => Seq(d.regionA -> d.regionB, d.regionB -> d.regionA))
      .groupBy(_._1).map { case (r, xs) => r -> xs.map(_._2).toSet }
      .withDefaultValue(Set.empty)

  @transient private lazy val doorIndex: Map[String, Int] =
    doors.zipWithIndex.map { case (d, i) => d.id -> i }.toMap

  /** All-pairs door matrix. `doorDist(i)(j)` = minimal walking cost from
    * door i to door j, counting the crossCost of every door *after* i
    * (including j). `doorNext(i)(j)` = first hop on that path, for
    * reconstruction. Floyd–Warshall; O(|doors|^3) once at build time.
    */
  @transient lazy val (doorDist: Array[Array[Double]], doorNext: Array[Array[Int]]) = {
    val n = doors.size
    val dist = Array.fill(n, n)(Double.PositiveInfinity)
    val next = Array.fill(n, n)(-1)
    for (i <- 0 until n) { dist(i)(i) = 0.0; next(i)(i) = i }
    // Direct edges: doors sharing a region (rectangular regions are
    // convex, so the straight segment between two of its doors is walkable).
    for {
      (_, ds) <- doorsOfRegion
      a <- ds; b <- ds if a.id != b.id
    } {
      val i = doorIndex(a.id); val j = doorIndex(b.id)
      val w = a.pt.dist(b.pt) + b.crossCost
      if (w < dist(i)(j)) { dist(i)(j) = w; next(i)(j) = j }
    }
    for (k <- 0 until n; i <- 0 until n if dist(i)(k).isFinite;
         j <- 0 until n if dist(i)(k) + dist(k)(j) < dist(i)(j)) {
      dist(i)(j) = dist(i)(k) + dist(k)(j)
      next(i)(j) = next(i)(k)
    }
    (dist, next)
  }

  /** The smallest-area region containing `p` (the first in floor order on
    * ties), or null: one pass over the floor's regions. */
  private def containing(p: IndoorPoint): Region = {
    val rs = regionsOnFloor(p.floor)
    var hit: Region = null
    var i = 0
    while (i < rs.length) {
      val r = rs(i)
      if (r.contains(p) && (hit == null || r.rect.area < hit.rect.area)) hit = r
      i += 1
    }
    hit
  }

  /** The region containing `p`, preferring the smallest-area match when
    * regions touch at shared boundaries. None if `p` is out of all regions
    * (e.g. heavy positioning noise outside the walls).
    */
  def regionAt(p: IndoorPoint): Option[Region] = Option(containing(p))

  /** Where `p` lies in the space: the DSM's one location rule. A point
    * inside some region keeps its position and gets the smallest-area
    * region containing it; a point outside the walls gets the nearest
    * region on its floor by rectangle distance and is clamped into it.
    * Ties go to the first region in floor order. None only when `p`'s
    * floor has no regions. Only a point outside every region costs a
    * second pass over the floor.
    */
  def locate(p: IndoorPoint): Option[Location] =
    containing(p) match {
      case null =>
        val rs = regionsOnFloor(p.floor)
        if (rs.isEmpty) None
        else {
          val r = rs.minBy(_.rect.dist(p.pt))
          val q = r.rect.clamp(p.pt)
          Some(Location(IndoorPoint(q.x, q.y, p.floor), r))
        }
      case r => Some(Location(p, r))
    }

  /** The one door-pair search: the cheapest route from `a` out through one
    * of its region's doors, along the door matrix, and in through a door of
    * `b`'s region to `b`. Returns (cost, entry door, exit door); the cost is
    * infinite and the doors -1 when no route exists. */
  private def doorRoute(a: Location, b: Location): (Double, Int, Int) = {
    var best = Double.PositiveInfinity
    var bi = -1; var bj = -1
    for (da <- doorsOfRegion(a.region.id); db <- doorsOfRegion(b.region.id)) {
      val i = doorIndex(da.id); val j = doorIndex(db.id)
      val c = a.point.pt.dist(da.pt) + da.crossCost + doorDist(i)(j) + db.pt.dist(b.point.pt)
      if (c < best) { best = c; bi = i; bj = j }
    }
    (best, bi, bj)
  }

  /** Minimum indoor walking distance between two points: Euclidean inside a
    * shared region, otherwise the cheapest door-to-door route; infinity when
    * no route exists. Points outside all regions are located (clamped) in
    * first.
    */
  def minWalkDist(a: IndoorPoint, b: IndoorPoint): Double = minWalkDist(locate(a), locate(b))

  /** [[minWalkDist]] between endpoints already located; infinity when
    * either is off the map. */
  def minWalkDist(a: Option[Location], b: Option[Location]): Double = (a, b) match {
    case (Some(la), Some(lb)) if la.region.id == lb.region.id => la.point.planarDist(lb.point)
    case (Some(la), Some(lb))                                 => doorRoute(la, lb)._1
    case _                                                    => Double.PositiveInfinity
  }

  /** One hop of a walking path: the waypoint reached and the walking cost
    * (metres) spent getting there from the previous step. A stair climb
    * appears as a zero-planar-displacement step whose cost is the
    * connector's `crossCost` — time passes, position stays at the stair
    * column, the floor flips. This keeps path interpolation consistent
    * with [[minWalkDist]] (which charges crossCost too). */
  final case class PathStep(point: IndoorPoint, cost: Double)

  /** Shortest indoor walking path a→b as cost-weighted steps (the first
    * step is `a` at cost 0; total cost equals [[minWalkDist]]). None when
    * unreachable. */
  def walkPathWeighted(a: IndoorPoint, b: IndoorPoint): Option[Vector[PathStep]] =
    walkPathWeighted(locate(a), locate(b))

  /** [[walkPathWeighted]] between endpoints already located. */
  def walkPathWeighted(la: Option[Location], lb: Option[Location]): Option[Vector[PathStep]] =
    (la, lb) match {
      case (Some(Location(a, ra)), Some(Location(b, rb))) if ra.id == rb.id =>
        Some(Vector(PathStep(a, 0.0), PathStep(b, a.planarDist(b))))
      case (Some(from), Some(to)) =>
        val (_, i, j) = doorRoute(from, to)
        if (i < 0) None
        else {
          val steps = Vector.newBuilder[PathStep]
          steps += PathStep(from.point, 0.0)
          var prev = from.point
          doorChain(i, j).foreach { di =>
            val d = doors(di)
            val fa = regionById(d.regionA).floor
            val fb = regionById(d.regionB).floor
            if (fa == fb) {
              val w = IndoorPoint(d.x, d.y, fa)
              steps += PathStep(w, prev.planarDist(w) + d.crossCost)
              prev = w
            } else {
              // Stair connector: approach on the near side, climb, exit on
              // the far side.
              val near = if (prev.floor == fa) fa else fb
              val far = if (near == fa) fb else fa
              val wNear = IndoorPoint(d.x, d.y, near)
              val wFar = IndoorPoint(d.x, d.y, far)
              steps += PathStep(wNear, prev.planarDist(wNear))
              steps += PathStep(wFar, d.crossCost)
              prev = wFar
            }
          }
          steps += PathStep(to.point, prev.planarDist(to.point))
          Some(steps.result())
        }
      case _ => None
    }

  /** Shortest indoor walking path a→b as ordered waypoints (endpoints
    * included; stair climbs contribute a waypoint per floor side).
    * Returns the straight segment when the two points share a region,
    * None when unreachable.
    */
  def walkPath(a0: IndoorPoint, b0: IndoorPoint): Option[Vector[IndoorPoint]] =
    walkPathWeighted(a0, b0).map { steps =>
      steps.map(_.point).foldLeft(Vector.empty[IndoorPoint]) {
        case (acc, p) if acc.nonEmpty && acc.last == p => acc
        case (acc, p)                                  => acc :+ p
      }
    }

  /** Door indices along the precomputed shortest route i→j (inclusive). */
  private def doorChain(i: Int, j: Int): Vector[Int] = {
    if (doorNext(i)(j) < 0) return Vector(i)
    var cur = i
    val buf = Vector.newBuilder[Int]
    buf += cur
    while (cur != j) { cur = doorNext(cur)(j); buf += cur }
    buf.result()
  }

  /** Point at walking-cost-fraction `f` (in [0,1]) along the shortest path
    * a→b. Cost includes stair climbing, so a constant-rate sweep of `f`
    * models constant walking effort: the position dwells at the stair
    * column for the climb's share of the walk (floor flips at the climb's
    * midpoint). Falls back to `a` when unreachable.
    */
  def alongPath(a: IndoorPoint, b: IndoorPoint, f: Double): IndoorPoint =
    alongPath(locate(a), locate(b), f).getOrElse(a)

  /** [[alongPath]] between endpoints already located; None when
    * unreachable. */
  def alongPath(a: Option[Location], b: Option[Location], f: Double): Option[IndoorPoint] =
    walkPathWeighted(a, b).map(pointAlong(_, f))

  private def pointAlong(steps: Vector[PathStep], f: Double): IndoorPoint = {
    val total = steps.map(_.cost).sum
    if (total <= 0) return steps.last.point
    var remaining = math.min(math.max(f, 0.0), 1.0) * total
    var prev = steps.head.point
    for (PathStep(q, cost) <- steps.tail) {
      if (remaining <= cost) {
        val g = if (cost == 0) 1.0 else remaining / cost
        val xy = prev.pt.lerp(q.pt, g)
        // Across a climb (or any floor change) the floor flips midway.
        return IndoorPoint(xy.x, xy.y, if (g < 0.5) prev.floor else q.floor)
      }
      remaining -= cost
      prev = q
    }
    steps.last.point
  }

  /** Tags of all semantic regions (distinct, sorted). */
  def semanticTags: Seq[String] = regions.map(_.tag).distinct.sorted

  override def toString: String =
    s"Dsm(${regions.size} regions, ${doors.size} doors, ${regionsOnFloor.size} floors)"
}
