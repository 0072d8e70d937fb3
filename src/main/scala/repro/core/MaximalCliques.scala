package repro.core

import repro.graph.{LocalGraph, Reorder, SetGraph, SparkGraph}
import repro.graph.Reorder.{AdgOrder, DegOrder, DgrOrder, IdOrder, Order}
import repro.metrics.Metrics
import repro.setalg.SetFactory
import scala.collection.mutable.ArrayBuffer

/** Distributed maximal clique listing (paper §6.2, Alg. 6).
  *
  * The outer loop over ordered vertices becomes a Spark job: a [[SeedRunner]]
  * broadcasts the [[SetGraph]] and the vertex order, each of its threads
  * runs the [[BronKerbosch]] kernel on the seed vertices it claims, and
  * per-thread statistics are reduced.
  * That mirrors the paper's OpenMP parallel-for over the outermost level
  * (their nested-parallel variant "proved consistently slower", §6.2 — we
  * parallelize only the outer level, as their final version does).
  *
  * Variants differ in (a) the vertex-order preprocessing (stage-3 modularity)
  * and (b) the set representation / subgraph optimization (level-5+):
  *
  *  - `BK-DAS`     — ID order, hash sets: stands in for Das et al.'s baseline
  *                   (no reordering preprocessing — the component GMS varies);
  *  - `BK-GMS-DEG` — degree order + roaring bitmaps;
  *  - `BK-GMS-DGR` — exact degeneracy order (Eppstein) + roaring bitmaps;
  *  - `BK-GMS-ADG` — (2+ε)-approx. degeneracy order + roaring bitmaps
  *                   (this paper's scheme);
  *  - `BK-GMS-ADG-S` — ADG plus the §6.2 subgraph optimization: per outer
  *                   vertex v the induced subgraph H on N(v) is built once,
  *                   IDs are remapped to 0..|N(v)|-1, and all pivot /
  *                   intersection work runs on H's sets (dense bitsets).
  */
object MaximalCliques {

  /** One BK configuration. */
  final case class Variant(name: String, order: Order, sets: SetFactory,
                           subgraphOpt: Boolean = false)

  val BkDas: Variant     = Variant("BK-DAS", IdOrder, SetFactory.hash)
  val BkGmsDeg: Variant  = Variant("BK-GMS-DEG", DegOrder, SetFactory.roaring)
  val BkGmsDgr: Variant  = Variant("BK-GMS-DGR", DgrOrder, SetFactory.roaring)
  def BkGmsAdg(eps: Double = 0.1): Variant =
    Variant("BK-GMS-ADG", AdgOrder(eps), SetFactory.roaring)
  def BkGmsAdgS(eps: Double = 0.1): Variant =
    Variant("BK-GMS-ADG-S", AdgOrder(eps), SetFactory.dense, subgraphOpt = true)

  /** All Fig.-4 variants in the paper's plotting order. */
  def allVariants: Seq[Variant] =
    Seq(BkDas, BkGmsDeg, BkGmsDgr, BkGmsAdg(), BkGmsAdgS())

  /** Aggregate result: #maximal cliques, largest clique, Σ sizes, timings. */
  final case class Result(cliques: Long, maxSize: Int, sumSizes: Long,
                          reorderSec: Double, mineSec: Double) {
    def totalSec: Double = reorderSec + mineSec
    /** The paper's algorithmic-throughput metric M: cliques mined / second. */
    def throughput: Double = Metrics.throughput(cliques, totalSec)
  }

  /** Count maximal cliques under `variant` on `tasks` threads (0 ⇒ the
    * default parallelism; pass k for the Fig.-8b thread-scaling sweep).
    */
  def run(g: SparkGraph, variant: Variant, tasks: Int = 0): Result = {
    val local = g.toLocal
    val t0 = System.nanoTime()
    val rank = Reorder.rank(local, variant.order)
    val reorderSec = (System.nanoTime() - t0) / 1e9
    mineLocal(g.spark, local, rank, variant, tasks).copy(reorderSec = reorderSec)
  }

  /** The mining phase alone, against a pre-collected CSR and precomputed
    * rank — the Fig.-8b scaling probe (no reorder / collect cost in scope).
    */
  def mineLocal(spark: org.apache.spark.sql.SparkSession, local: LocalGraph,
                rank: Array[Int], variant: Variant, tasks: Int = 0): Result = {
    Reorder.requireRank(rank, local.n)
    val t1 = System.nanoTime()
    val subgraph = variant.subgraphOpt
    val stats = SeedRunner.run(spark.sparkContext, (new SetGraph(local, variant.sets), rank),
                               local.n, tasks) { case ((sg, rk), seeds) =>
      var count = 0L
      var sumSizes = 0L
      var maxSize = 0
      val onClique: ArrayBuffer[Int] => Unit = r => {
        count += 1
        sumSizes += r.length
        if (r.length > maxSize) maxSize = r.length
      }
      seeds.foreach(v => seed(sg, rk, v, subgraph, onClique))
      (count, sumSizes, maxSize)
    }
    val mineSec = (System.nanoTime() - t1) / 1e9
    Result(stats.map(_._1).sum, stats.map(_._3).foldLeft(0)(math.max),
           stats.map(_._2).sum, 0.0, mineSec)
  }

  /** List all maximal cliques (sorted vertex lists) — test-scale only. */
  def list(g: SparkGraph, variant: Variant): Seq[Seq[Int]] = {
    val local = g.toLocal
    listLocal(local, Reorder.rank(local, variant.order), variant.sets, variant.subgraphOpt)
  }

  /** Driver-side listing against a precomputed rank — reference for tests. */
  def listLocal(graph: LocalGraph, rank: Array[Int], factory: SetFactory,
                subgraphOpt: Boolean = false): Seq[Seq[Int]] = {
    Reorder.requireRank(rank, graph.n)
    val out = ArrayBuffer.empty[Seq[Int]]
    val sg = new SetGraph(graph, factory)
    (0 until graph.n).foreach(v => seed(sg, rank, v, subgraphOpt, r => out += r.toArray.toSeq.sorted))
    out.toSeq
  }

  private def seed(sg: SetGraph, rank: Array[Int], v: Int, subgraphOpt: Boolean,
                   onClique: ArrayBuffer[Int] => Unit): Unit =
    if (subgraphOpt) seedSubgraph(sg, rank, v, onClique)
    else seedGlobal(sg, rank, v, onClique)

  /** Outer-level seed using global-ID sets (Alg. 6 line 13: split N(v) into
    * later / earlier neighbors by the order).
    */
  private def seedGlobal(sg: SetGraph, rank: Array[Int], v: Int,
                         onClique: ArrayBuffer[Int] => Unit): Unit = {
    val ns = sg.graph.neighbors(v)
    val later = ns.filter(w => rank(w) > rank(v))
    val earlier = ns.filter(w => rank(w) < rank(v))
    BronKerbosch.fromSeed(v, later, earlier, sg, onClique)
  }

  /** Outer-level seed with the subgraph optimization: all recursion runs in
    * the induced subgraph H on N(v) with remapped IDs, read as a SetGraph
    * under the variant's factory (P, X ⊆ N(v) throughout, so H's
    * neighborhoods N_H suffice — §6.2).
    */
  private def seedSubgraph(sg: SetGraph, rank: Array[Int], v: Int,
                           onClique: ArrayBuffer[Int] => Unit): Unit = {
    val ns = sg.graph.neighbors(v)
    if (ns.isEmpty) { onClique(ArrayBuffer(v)); return } // isolated vertex
    val (h, ids) = sg.graph.inducedSubgraph(ns)
    val u = ids.length
    val later = Array.range(0, u).filter(i => rank(ids(i)) > rank(v))
    val earlier = Array.range(0, u).filter(i => rank(ids(i)) < rank(v))
    val remapped: ArrayBuffer[Int] => Unit = r => {
      val orig = ArrayBuffer(v)
      // First element of R is the local seed sentinel -1; others map via ids.
      var i = 1
      while (i < r.length) { orig += ids(r(i)); i += 1 }
      onClique(orig)
    }
    BronKerbosch.fromSeed(-1, later, earlier, new SetGraph(h, sg.factory), remapped)
  }
}
