package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Vertex reorderings — GMS pipeline stage 3 (preprocessing).
  *
  * Every order is computed on the collected CSR and returned as a rank
  * array: `rank(v)` is v's position, and the ranks are a permutation of
  * 0..n-1. [[rank]] is the one entry point the kernels use. Provided schemes
  * (paper §6.1 / Table 4):
  *
  *  - [[IdOrder]] — identity (the "no preprocessing" baseline);
  *  - [[DegOrder]] — DEG: ascending degree, ties by vertex ID;
  *  - [[DgrOrder]] — DGR: exact degeneracy order by batched peeling at the
  *    current level. It needs up to O(n) rounds — the paper's point that
  *    "default DGR is not easily parallelizable and takes O(n) iterations
  *    even in a parallel setting";
  *  - [[AdgOrder]] — ADG: the (2+ε)-approximate degeneracy order of Alg. 5,
  *    O(log n) batched rounds — the scheme whose parallel-friendliness the
  *    paper exploits.
  *
  * [[degeneracyLocal]] (Matula-Beck min-degree peeling) is the exact
  * sequential reference and also yields coreness.
  */
object Reorder {

  /** Vertex-order choices for preprocessing. */
  sealed trait Order { def name: String }
  case object IdOrder  extends Order { val name = "ID"  }
  case object DegOrder extends Order { val name = "DEG" }

  /** An order computed by a batched peel ([[peel]]); the case is its rule. */
  sealed trait PeelOrder extends Order
  /** Exact DGR: remove every vertex of degree ≤ the current level, raising
    * the level to the minimum live degree once it is exhausted.
    */
  case object DgrOrder extends PeelOrder { val name = "DGR" }
  /** ADG (Alg. 5): remove every vertex of degree ≤ (1+ε) × the live average. */
  final case class AdgOrder(eps: Double = 0.1) extends PeelOrder {
    require(eps >= 0, s"ADG needs ε ≥ 0, got $eps")
    val name = "ADG"
  }

  /** rank(v) for `order` on the CSR. */
  def rank(local: LocalGraph, order: Order): Array[Int] = order match {
    case IdOrder      => Array.range(0, local.n)
    case DegOrder     => rankBy(Array.tabulate(local.n)(local.degree(_).toLong))
    case p: PeelOrder => peel(local, p)._1
  }

  /** Batched peeling on the CSR: each round removes every live vertex whose
    * degree among live vertices is at most the rule's threshold, then lowers
    * its live neighbours' degrees. Removed vertices are ranked by round, and
    * by vertex ID within a round. Returns (rank, rounds) — the rounds are
    * the paper's O(log n) (ADG) vs O(n) (DGR) claim.
    */
  def peel(g: LocalGraph, rule: PeelOrder): (Array[Int], Int) = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val live = Array.range(0, n) // live vertices, ascending, in live(0 until liveCount)
    var liveCount = n
    val removed = new Array[Boolean](n)
    val order = new Array[Int](n) // order(r) = the vertex of rank r
    val rank = new Array[Int](n)
    var ranked = 0
    var level = 0
    var rounds = 0
    while (liveCount > 0) {
      var sum = 0L
      var min = Int.MaxValue
      var i = 0
      while (i < liveCount) { val d = deg(live(i)); sum += d; if (d < min) min = d; i += 1 }
      val threshold = rule match {
        case AdgOrder(eps) => (1.0 + eps) * (sum.toDouble / liveCount)
        case DgrOrder      => level = math.max(level, min); level.toDouble
      }
      val first = ranked
      var kept = 0
      i = 0
      while (i < liveCount) {
        val v = live(i)
        if (deg(v) <= threshold) {
          removed(v) = true; order(ranked) = v; rank(v) = ranked; ranked += 1
        } else { live(kept) = v; kept += 1 }
        i += 1
      }
      liveCount = kept
      var r = first
      while (r < ranked) {
        val v = order(r)
        var j = g.offsets(v)
        while (j < g.offsets(v + 1)) { val w = g.adj(j); if (!removed(w)) deg(w) -= 1; j += 1 }
        r += 1
      }
      rounds += 1
    }
    (rank, rounds)
  }

  /** Throws `IllegalArgumentException` unless `rank` is a permutation of
    * 0..n-1. Kernels check on the driver, before a bad rank fails in a task.
    */
  def requireRank(rank: Array[Int], n: Int): Unit = {
    require(rank.length == n, s"rank has ${rank.length} entries for $n vertices")
    val seen = new Array[Boolean](n)
    for (v <- 0 until n) {
      val r = rank(v)
      require(r >= 0 && r < n && !seen(r), s"rank($v) = $r is outside [0, $n) or repeated")
      seen(r) = true
    }
  }

  /** Ranks ascending by `key`, ties by vertex ID. */
  private def rankBy(key: Array[Long]): Array[Int] = {
    val n = key.length
    val byKey = Array.range(0, n).sortBy(v => (key(v), v))
    val rank = new Array[Int](n)
    var i = 0
    while (i < n) { rank(byKey(i)) = i; i += 1 }
    rank
  }

  /** Descending per-vertex triangle count ("triangle count ranking", Table 4),
    * ties by vertex ID; `triPerVertex(v)` is v's triangle count.
    */
  def byTriangleCount(g: SparkGraph, triPerVertex: Array[Long]): DataFrame =
    g.perVertex("rank", rankBy(triPerVertex.map(-_)))

  /** Exact degeneracy order + coreness, driver-side Matula-Beck peeling.
    * Returns (rank array, coreness array, degeneracy). rank(v) = position in
    * the removal order; every vertex has ≤ degeneracy later-ranked neighbors.
    */
  def degeneracyLocal(g: LocalGraph): (Array[Int], Array[Int], Int) = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // Bucket queue over current degrees.
    val bucketHead = Array.fill(maxDeg + 1)(-1)
    val next = Array.fill(n)(-1)
    val prev = Array.fill(n)(-1)
    def pushBucket(v: Int): Unit = {
      val d = deg(v)
      next(v) = bucketHead(d)
      prev(v) = -1
      if (bucketHead(d) >= 0) prev(bucketHead(d)) = v
      bucketHead(d) = v
    }
    def popFromBucket(v: Int, d: Int): Unit = {
      if (prev(v) >= 0) next(prev(v)) = next(v) else bucketHead(d) = next(v)
      if (next(v) >= 0) prev(next(v)) = prev(v)
    }
    (0 until n).foreach(pushBucket)
    val rank = new Array[Int](n)
    val coreness = new Array[Int](n)
    val removed = new Array[Boolean](n)
    var degeneracy = 0
    var curMin = 0
    var i = 0
    while (i < n) {
      while (curMin <= maxDeg && bucketHead(curMin) < 0) curMin += 1
      val v = bucketHead(curMin)
      popFromBucket(v, curMin)
      removed(v) = true
      degeneracy = math.max(degeneracy, curMin)
      coreness(v) = degeneracy
      rank(v) = i
      var j = g.offsets(v)
      while (j < g.offsets(v + 1)) {
        val w = g.adj(j)
        if (!removed(w)) {
          popFromBucket(w, deg(w))
          deg(w) -= 1
          pushBucket(w)
          if (deg(w) < curMin) curMin = deg(w)
        }
        j += 1
      }
      i += 1
    }
    (rank, coreness, degeneracy)
  }

  /** A peeling order as a `(v, rank)` DataFrame plus its round count. */
  final case class PeelResult(order: DataFrame, iterations: Int)

  /** ADG on a [[SparkGraph]]: peel the graph's CSR and lift the rank to a
    * DataFrame. Kernels use [[rank]] on the CSR they already hold.
    */
  def adg(g: SparkGraph, eps: Double = 0.1): PeelResult = {
    val (rank, rounds) = peel(g.toLocal, AdgOrder(eps))
    PeelResult(g.perVertex("rank", rank), rounds)
  }

  /** Collect a (v, rank) DataFrame into rank(v) form. */
  def rankArray(order: DataFrame, n: Int): Array[Int] = {
    val out = new Array[Int](n)
    order.select(col("v").cast("int"), col("rank").cast("int"))
      .collect()
      .foreach(r => out(r.getInt(0)) = r.getInt(1))
    out
  }

  /** Count later-ranked neighbors per vertex — the quantity the (2+ε)
    * guarantee bounds; used by tests and the reorder bench.
    */
  def maxLaterDegree(g: LocalGraph, rank: Array[Int]): Int = g.orient(rank).maxDegree
}
