package repro.core

import repro.graph.{LocalGraph, SetGraph, SparkGraph}
import repro.setalg.{Scratch, SetFactory, VertexSet}

/** k-clique-star listing (paper §6.6).
  *
  * A k-clique-star is a k-clique C plus the non-empty set S of "star"
  * vertices adjacent to *every* vertex of C. The paper's observation: each
  * star vertex forms a (k+1)-clique with C, so k-clique-stars are found from
  * clique listing plus set algebra — here directly: for each k-clique C,
  * S = (∩_{v∈C} N(v)) \ C, emitted when S ≠ ∅.
  */
object KCliqueStar {

  final case class Result(stars: Long, starVertices: Long)

  /** Count k-clique-stars and total star-vertex memberships.
    * Distributed like node-parallel k-clique listing: each seed vertex runs
    * [[KClique.walk]] on the oriented graph.
    */
  def count(g: SparkGraph, k: Int, rank: Array[Int],
            factory: SetFactory = SetFactory.sorted, tasks: Int = 0): Result = {
    require(k >= 2, "k-clique-star needs k ≥ 2")
    val local = g.toLocal
    val data = (new SetGraph(local, factory), new SetGraph(local.orient(rank), factory))
    val agg = SeedRunner.run(g.spark.sparkContext, data, local.n, tasks) { case ((und, ori), seeds) =>
      var stars = 0L
      var starVerts = 0L
      val scratch = new Scratch(ori.factory, ori.n)
      val fold = new Fold(und, k - 1)
      seeds.foreach(u => KClique.walk(ori, k, u, scratch) { (prefix, ck) =>
        // S of clique v :: prefix is (∩_{p∈prefix} N(p)) ∩ N(v); the prefix
        // part is shared by every leaf v, and only |S| is needed.
        val common = fold(prefix)
        val it = ck.cursor
        while (it.hasNext) {
          val s = common.intersectCount(und.neighbors(it.next()))
          if (s > 0) { stars += 1; starVerts += s }
        }
      })
      (stars, starVerts)
    }
    Result(agg.map(_._1).sum, agg.map(_._2).sum)
  }

  /** Driver-side reference: list (clique, starSet) pairs. */
  def listLocal(local: LocalGraph, k: Int, rank: Array[Int],
                factory: SetFactory = SetFactory.sorted): Seq[(Seq[Int], Seq[Int])] = {
    val fold = new Fold(new SetGraph(local, factory), k)
    KClique.listLocal(local, k, rank, factory).flatMap { c =>
      val s = fold(c.toList).toArray.toSeq
      if (s.nonEmpty) Some((c, s)) else None
    }
  }

  /** ∩_{p∈vs} N(p) for lists `vs` of `len` vertices, newest first (a
    * walk's prefixes): pure set algebra over the chosen representation. For
    * a clique C this is its star set S, since v ∉ N(v) drops C's own
    * vertices. Counting from the oldest vertex p₀, it keeps one fold per
    * depth, F₀ = N(p₀) and F_j = F_{j-1} ∩ N(p_j) in `scratch(j)`, and
    * recomputes them from the first vertex that differs from the previous
    * list's, so a walk pays one ∩ per new prefix vertex. The result is
    * read-only, and valid until the next call.
    */
  private final class Fold(und: SetGraph, len: Int) {
    private val verts = Array.fill(len)(-1)
    private val folds = new Array[VertexSet](len)
    private val scratch = new Scratch(und.factory, und.n)

    def apply(vs: List[Int]): VertexSet = {
      var from = len
      var rest = vs
      var j = len - 1
      while (j >= 0) {
        if (verts(j) != rest.head) { verts(j) = rest.head; from = j }
        rest = rest.tail
        j -= 1
      }
      while (from < len) {
        folds(from) =
          if (from == 0) und.neighbors(verts(0))
          else {
            val dst = scratch(from)
            folds(from - 1).intersectInto(und.neighbors(verts(from)), dst)
            dst
          }
        from += 1
      }
      folds(len - 1)
    }
  }
}
