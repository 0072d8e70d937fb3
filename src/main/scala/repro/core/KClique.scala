package repro.core

import repro.graph.{LocalGraph, Reorder, SetGraph, SparkGraph}
import repro.metrics.Metrics
import repro.setalg.{Scratch, SetFactory, VertexSet}

/** k-clique listing / counting (paper §6.3, Alg. 7) — the GMS reformulation
  * of Danisch et al.'s kClist in explicit set algebra.
  *
  * Preprocessing: pick a vertex order η (stage 3), orient the graph so an
  * edge goes from v to u iff η(v) < η(u) (line 9). Then
  *
  *  - node-parallel: one task per vertex u, C₂ = N⁺(u) (line 11-12);
  *  - edge-parallel: one task per directed edge (u,v), C₃ = N⁺(u) ∩ N⁺(v)
  *    (the §7.2 work/depth/space trade-off point with the better practical
  *    scalability);
  *
  * and the recursion `count(i, Cᵢ)` intersects C with N⁺(v) per candidate v
  * (line 19) until depth k, where |C_k| is added (line 15). Each C_{i+1} is
  * written in place into one scratch set per depth, as kClist keeps one
  * buffer per level, so the recursion allocates no set. One formulation
  * covers all k ≥ 2 — the paper highlights dropping kClist's special-cased
  * k = 3 routine.
  */
object KClique {

  sealed trait Mode { def name: String }
  case object NodeParallel extends Mode { val name = "NP" }
  case object EdgeParallel extends Mode { val name = "EP" }

  final case class Result(cliques: Long, reorderSec: Double, mineSec: Double) {
    def totalSec: Double = reorderSec + mineSec
    def throughput: Double = Metrics.throughput(cliques, totalSec)
  }

  /** Recursive counting kernel over the oriented SetGraph; `ci` is C_i,
    * and C_{i+1} is written into `scratch(i + 1)` (C₂ = N⁺(u) is read, not
    * written). A thread makes one [[Scratch]] and reuses it for every unit.
    * One level early it adds Σ_{v∈C} |N⁺(v) ∩ C| with the count-only
    * `intersectCount` (Listing 1), so no C_k is materialised.
    */
  private def countRec(sg: SetGraph, i: Int, k: Int, ci: VertexSet, scratch: Scratch): Long = {
    if (i == k) return ci.cardinality.toLong
    var total = 0L
    val it = ci.cursor
    if (i == k - 1) {
      while (it.hasNext) total += sg.neighbors(it.next()).intersectCount(ci)
    } else {
      val next = scratch(i + 1)
      while (it.hasNext) {
        sg.neighbors(it.next()).intersectInto(ci, next)
        total += countRec(sg, i + 1, k, next, scratch)
      }
    }
    total
  }

  /** Count k-cliques of the oriented graph starting from one vertex. */
  private def countFromVertex(sg: SetGraph, k: Int, u: Int, scratch: Scratch): Long =
    if (k == 1) 1L else countRec(sg, 2, k, sg.neighbors(u), scratch)

  /** The k-cliques of the oriented graph that start from vertex u, over a
    * fresh SetGraph, which builds only the sets this one seed touches.
    */
  def countFromVertex(oriented: LocalGraph, factory: SetFactory, k: Int, u: Int): Long =
    countFromVertex(new SetGraph(oriented, factory), k, u, new Scratch(factory, oriented.n))

  /** Count k-cliques of the oriented graph starting from one directed edge. */
  private def countFromEdge(sg: SetGraph, k: Int, u: Int, v: Int, scratch: Scratch): Long = {
    val c3 = scratch(3)
    sg.neighbors(u).intersectInto(sg.neighbors(v), c3)
    countRec(sg, 3, k, c3, scratch)
  }

  /** Distributed k-clique count on the graph's CSR. `rank` is the
    * preprocessing order (computed and timed by the caller, e.g. via
    * [[Reorder.rank]], so benches can report the reorder fraction, Fig. 5).
    * The units are the vertices (node-parallel) or the arcs of the oriented
    * CSR (edge-parallel); on a graph whose CSR is held this is one Spark job.
    */
  def count(g: SparkGraph, k: Int, rank: Array[Int], mode: Mode = EdgeParallel,
            factory: SetFactory = SetFactory.sorted, tasks: Int = 0): Long = {
    require(k >= 2, "k-clique needs k ≥ 2")
    val local = g.toLocal
    if (k == 2) return local.m
    val oriented = local.orient(rank)
    val sg = new SetGraph(oriented, factory)
    val sc = g.spark.sparkContext
    val partials = mode match {
      case NodeParallel =>
        SeedRunner.run(sc, sg, oriented.n, tasks) { (sg, seeds) =>
          val s = new Scratch(sg.factory, sg.n)
          var total = 0L
          while (seeds.hasNext) total += countFromVertex(sg, k, seeds.next(), s)
          total
        }
      case EdgeParallel =>
        SeedRunner.run(sc, sg, oriented.adj.length, tasks) { (sg, arcs) =>
          val s = new Scratch(sg.factory, sg.n)
          SeedRunner.sumArcs(sg.graph, arcs)(countFromEdge(sg, k, _, _, s))
        }
    }
    partials.sum
  }

  /** Full pipeline: order + count on the graph's CSR, with timings (bench
    * entry point). The CSR's first collect is in neither timing.
    */
  def run(g: SparkGraph, k: Int, order: Reorder.Order,
          mode: Mode = EdgeParallel, factory: SetFactory = SetFactory.sorted,
          tasks: Int = 0): Result = {
    val local = g.toLocal
    val t0 = System.nanoTime()
    val rank = Reorder.rank(local, order)
    val reorderSec = (System.nanoTime() - t0) / 1e9
    val t1 = System.nanoTime()
    val c = count(g, k, rank, mode, factory, tasks)
    Result(c, reorderSec, (System.nanoTime() - t1) / 1e9)
  }

  /** Alg. 7's recursion from vertex u of an oriented SetGraph, for listing:
    * calls `leaf(prefix, C_k)` once per (k-1)-clique `prefix` that starts at
    * u (newest vertex first, u last), where C_k holds the vertices that
    * complete it to a k-clique. C_i is written into `scratch(i)` for
    * i ≥ 3, so `leaf` may read C_k only during the call and must not change
    * it. k ≥ 2.
    */
  private[core] def walk(sg: SetGraph, k: Int, u: Int, scratch: Scratch)
                        (leaf: (List[Int], VertexSet) => Unit): Unit = {
    def rec(i: Int, ci: VertexSet, prefix: List[Int]): Unit =
      if (i == k) leaf(prefix, ci)
      else {
        val next = scratch(i + 1)
        val it = ci.cursor
        while (it.hasNext) {
          val v = it.next()
          sg.neighbors(v).intersectInto(ci, next)
          rec(i + 1, next, v :: prefix)
        }
      }
    rec(2, sg.neighbors(u), List(u))
  }

  /** List all k-cliques (sorted) — test-scale only, driver-side. */
  def listLocal(local: LocalGraph, k: Int, rank: Array[Int],
                factory: SetFactory = SetFactory.sorted): Seq[Seq[Int]] = {
    if (k == 1) return (0 until local.n).map(Seq(_))
    val sg = new SetGraph(local.orient(rank), factory)
    val s = new Scratch(factory, local.n)
    val out = scala.collection.mutable.ArrayBuffer.empty[Seq[Int]]
    for (u <- 0 until local.n)
      walk(sg, k, u, s)((prefix, ck) => ck.toArray.foreach(v => out += (v :: prefix).sorted))
    out.toSeq
  }
}
