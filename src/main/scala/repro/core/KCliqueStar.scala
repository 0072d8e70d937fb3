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
      seeds.foreach(u => KClique.walk(ori, k, u, scratch) { (prefix, ck) =>
        // S of clique v :: prefix is (∩_{p∈prefix} N(p)) ∩ N(v); the prefix
        // part is shared by every leaf v, and only |S| is needed. The walk
        // writes only depths ≥ 3, so the fold's depth 0 is free.
        val common = commonNeighbors(und, prefix, scratch)
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
    val und = new SetGraph(local, factory)
    val scratch = new Scratch(factory, local.n)
    KClique.listLocal(local, k, rank, factory).flatMap { c =>
      val s = commonNeighbors(und, c.toList, scratch).toArray.toSeq
      if (s.nonEmpty) Some((c, s)) else None
    }
  }

  /** ∩_{v∈vs} N(v) — pure set algebra over the chosen representation. For a
    * clique C this is its star set S: v ∉ N(v), so C's own vertices drop out.
    * For one vertex it is that vertex's shared set; otherwise the fold is
    * written into `scratch(0)`, the first ∩ into it and each later one in
    * place. Either way the result is read-only.
    */
  private def commonNeighbors(und: SetGraph, vs: List[Int], scratch: Scratch): VertexSet =
    if (vs.tail.isEmpty) und.neighbors(vs.head)
    else {
      val dst = scratch(0)
      und.neighbors(vs.head).intersectInto(und.neighbors(vs.tail.head), dst)
      var rest = vs.tail.tail
      while (rest.nonEmpty) { dst.intersectInto(und.neighbors(rest.head), dst); rest = rest.tail }
      dst
    }
}
