package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.{LocalGraph, SetGraph, SparkGraph}
import repro.setalg.{Scratch, SetFactory, VertexSet}

/** Subgraph isomorphism (paper §6.4): VF2/VF3-light-style recursive
  * backtracking, counting embeddings of a small labeled query graph H in a
  * labeled target graph G — induced and non-induced (§A).
  *
  * Candidate generation is set algebra: the candidates for the next query
  * vertex are ∩ over its already-mapped query neighbors p of N_G(φ(p)),
  * filtered by label / degree / injectivity (and non-edges for induced).
  *
  * Parallel variants mirror the paper's optimizations. All run on
  * [[SeedRunner]]'s T threads (the Fig.-7 thread axis), which claim units
  * one at a time; a unit is a target vertex as φ(q₀), or an arc
  * (φ(q₀), φ(q₁)) of the target CSR:
  *  - [[Base]]       — vertex units, statically split: the U units form T
  *                     contiguous chunks [t·U/T, (t+1)·U/T), and a thread
  *                     claims a chunk whole (the VF3-light parallel
  *                     baseline, load imbalance included);
  *  - [[WorkSplit]]  — split work at recursion depth 2: arc units, a much
  *                     finer grain, in the same static chunks;
  *  - [[WorkSteal]]  — stands in for the paper's lock-free work-stealing
  *                     queue: arc units claimed one at a time, so an idle
  *                     thread always takes the next arc;
  *  - [[Precompute]] — WorkSteal plus per-query-vertex candidate sets
  *                     prefiltered by (label, degree, neighbor-degree sum)
  *                     ahead of the search (the paper's "precompute scheme").
  */
object SubgraphIso {

  sealed trait Variant { def name: String }
  case object Base       extends Variant { val name = "SI-Base" }
  case object WorkSplit  extends Variant { val name = "SI-Split" }
  case object WorkSteal  extends Variant { val name = "SI-Steal" }
  case object Precompute extends Variant { val name = "SI-Pre" }

  def allVariants: Seq[Variant] = Seq(Base, WorkSplit, WorkSteal, Precompute)

  /** A labeled query pattern; `labels(q)` for q in 0..H.n-1. */
  final case class Pattern(graph: LocalGraph, labels: Array[Int]) extends Serializable {
    require(labels.length == graph.n)
  }

  /** A connected search order over the query: q₀ = max-degree vertex, then
    * BFS so every later vertex has a mapped neighbor (VF-style).
    */
  private[core] def searchOrder(h: LocalGraph): Array[Int] = {
    require(h.n > 0)
    val start = (0 until h.n).maxBy(h.degree)
    val order = scala.collection.mutable.ArrayBuffer(start)
    val seen = Array.fill(h.n)(false)
    seen(start) = true
    var i = 0
    while (order.length < h.n) {
      if (i >= order.length) {
        // Disconnected query: start a new component at an unseen vertex.
        val nxt = (0 until h.n).find(!seen(_)).get
        order += nxt; seen(nxt) = true
      } else {
        h.neighbors(order(i)).foreach { w =>
          if (!seen(w)) { order += w; seen(w) = true }
        }
        i += 1
      }
    }
    order.toArray
  }

  /** SI-Pre's precompute: `cand(q)` holds the target vertices with q's
    * label, sufficient degree and sufficient neighbor-degree sum (a cheap
    * VF3-style invariant), where `gSig` and `hSig` are the neighbor-degree
    * sums of target and query.
    */
  private final case class Precomputed(cand: Array[VertexSet], gSig: Array[Long], hSig: Array[Long])

  /** Count embeddings extending a fixed prefix of the search order.
    *
    * The candidates for query vertex q are ∩ N(φ(p)) over the query
    * neighbors p of q mapped before it, read from `sg` without copying when
    * there is one, else written into `scratch(pos)`. A q with none (the
    * root, or a new component of a disconnected query) scans `pre.cand(q)`,
    * or every target vertex.
    *
    * `mapping` (query → target, -1 when unmapped), `used` (the O(n) marks
    * of mapped target vertices) and `scratch` are a thread's, shared by its
    * units: `mapping` and `used` are clear on entry, and whatever the prefix
    * install marked is cleared again on exit.
    *
    * @param prefix mapped target vertices for searchOrder positions 0..prefix.length-1;
    *               a two-vertex prefix must be an edge of the target
    */
  private def countFrom(sg: SetGraph, gLabels: Array[Int], p: Pattern,
                        order: Array[Int], earlier: Array[(Array[Int], Array[Int])],
                        induced: Boolean,
                        pre: Precomputed,   // null ⇒ no precompute
                        mapping: Array[Int], used: Array[Boolean], scratch: Scratch,
                        prefix: Array[Int]): Long = {
    val g = sg.graph
    val h = p.graph
    val qn = h.n
    var count = 0L

    // Adjacency to every mapped query neighbor is not checked here: the
    // candidates already lie in all their neighborhoods.
    def feasible(q: Int, v: Int, pos: Int): Boolean = {
      if (used(v)) return false
      if (gLabels(v) != p.labels(q)) return false
      if (g.degree(v) < h.degree(q)) return false
      // Membership in pre.cand(q), whose label and degree tests passed above.
      if (pre != null && pre.gSig(v) < pre.hSig(q)) return false
      // For induced matching, mapped non-neighbors must stay non-edges.
      if (induced) {
        val nonNbrs = earlier(pos)._2
        var j = 0
        while (j < nonNbrs.length) {
          if (g.hasEdge(v, mapping(nonNbrs(j)))) return false
          j += 1
        }
      }
      true
    }

    def extend(q: Int, v: Int, pos: Int): Unit =
      if (feasible(q, v, pos)) {
        mapping(q) = v; used(v) = true
        rec(pos + 1)
        mapping(q) = -1; used(v) = false
      }

    def rec(pos: Int): Unit = {
      if (pos == qn) { count += 1; return }
      val q = order(pos)
      val nbrs = earlier(pos)._1
      if (nbrs.isEmpty && pre == null) {
        var v = 0
        while (v < g.n) { extend(q, v, pos); v += 1 }
        return
      }
      val cands =
        if (nbrs.isEmpty) pre.cand(q)
        else if (nbrs.length == 1) sg.neighbors(mapping(nbrs(0)))
        else {
          val dst = scratch(pos)
          sg.neighbors(mapping(nbrs(0))).intersectInto(sg.neighbors(mapping(nbrs(1))), dst)
          var i = 2
          while (i < nbrs.length) { dst.intersectInto(sg.neighbors(mapping(nbrs(i))), dst); i += 1 }
          dst
        }
      val it = cands.cursor
      while (it.hasNext) extend(q, it.next(), pos)
    }

    // Install the prefix as far as it is feasible (an invalid unit yields 0).
    var installed = 0
    while (installed < prefix.length && feasible(order(installed), prefix(installed), installed)) {
      mapping(order(installed)) = prefix(installed); used(prefix(installed)) = true
      installed += 1
    }
    if (installed == prefix.length) rec(installed)
    while (installed > 0) {
      installed -= 1
      mapping(order(installed)) = -1; used(prefix(installed)) = false
    }
    count
  }

  /** Σ of neighbor degrees per vertex, in O(n + m). */
  private def nbrDegSums(gr: LocalGraph): Array[Long] = {
    val out = new Array[Long](gr.n)
    var v = 0
    while (v < gr.n) {
      var i = gr.offsets(v)
      while (i < gr.offsets(v + 1)) { out(v) += gr.degree(gr.adj(i)); i += 1 }
      v += 1
    }
    out
  }

  /** SI-Pre's [[Precomputed]] candidates of `p` in `g`. */
  private def precompute(g: LocalGraph, gLabels: Array[Int],
                         p: Pattern, factory: SetFactory): Precomputed = {
    val h = p.graph
    val gSig = nbrDegSums(g)
    val hSig = nbrDegSums(h)
    val cand = Array.tabulate(h.n) { q =>
      val cands = new scala.collection.mutable.ArrayBuilder.ofInt
      var v = 0
      while (v < g.n) {
        if (gLabels(v) == p.labels(q) && g.degree(v) >= h.degree(q) && gSig(v) >= hSig(q)) cands += v
        v += 1
      }
      factory.fromSorted(cands.result(), g.n)
    }
    Precomputed(cand, gSig, hSig)
  }

  /** Distributed embedding count on T threads, T = `tasks` if positive,
    * else the default parallelism. Queries whose q₁ is not adjacent to q₀
    * use vertex units under every variant. An isolated target vertex has no
    * arc, and could not map a q₀ of degree ≥ 1 anyway.
    */
  def count(g: SparkGraph, gLabels: Array[Int], pattern: Pattern,
            induced: Boolean, variant: Variant = WorkSteal,
            factory: SetFactory = SetFactory.sorted, tasks: Int = 0): Long =
    countLocal(g.spark, g.toLocal, gLabels, pattern, induced, variant, factory, tasks)

  /** [[count]] against a pre-collected target CSR. */
  def countLocal(spark: SparkSession, local: LocalGraph, gLabels: Array[Int], pattern: Pattern,
                 induced: Boolean, variant: Variant = WorkSteal,
                 factory: SetFactory = SetFactory.sorted, tasks: Int = 0): Long = {
    require(gLabels.length == local.n, s"${gLabels.length} labels for ${local.n} target vertices")
    val sc = spark.sparkContext
    val order = searchOrder(pattern.graph)
    val pre = if (variant == Precompute) precompute(local, gLabels, pattern, factory) else null
    val nTasks = if (tasks > 0) tasks else sc.defaultParallelism
    val byArc = variant != Base && pattern.graph.n >= 2 && pattern.graph.hasEdge(order(0), order(1))
    val nUnits = if (byArc) local.adj.length else local.n
    val static = variant == Base || variant == WorkSplit
    def chunk(t: Int): Int = (t.toLong * nUnits / nTasks).toInt
    // For each position: the query vertices earlier in the order that are
    // neighbors of order(pos), and those that are not.
    val earlier = Array.tabulate(order.length)(pos => order.take(pos).partition(pattern.graph.hasEdge(order(pos), _)))
    val data = (new SetGraph(local, factory), gLabels, pattern, earlier, pre)
    SeedRunner.run(sc, data, if (static) nTasks else nUnits, nTasks) {
      case ((sg, labels, p, earlier, pre), mine) =>
        val units = if (static) mine.flatMap(t => Iterator.range(chunk(t), chunk(t + 1))) else mine
        val mapping = Array.fill(p.graph.n)(-1)
        val used = new Array[Boolean](sg.n)
        val scratch = new Scratch(sg.factory, sg.n)
        def count(prefix: Array[Int]) =
          countFrom(sg, labels, p, order, earlier, induced, pre, mapping, used, scratch, prefix)
        if (byArc) SeedRunner.sumArcs(sg.graph, units)((u, v) => count(Array(u, v)))
        else units.map(v => count(Array(v))).sum
    }.sum
  }

  /** Driver-side brute-force reference (all injective label-respecting
    * mappings) — test oracle for tiny graphs.
    */
  def bruteForce(g: LocalGraph, gLabels: Array[Int], p: Pattern,
                 induced: Boolean): Long = {
    val h = p.graph
    (0 until g.n).toArray.combinations(h.n).map { verts =>
      verts.permutations.count { perm =>
        val ok = (0 until h.n).forall(q => gLabels(perm(q)) == p.labels(q))
        ok && (0 until h.n).forall { a =>
          (a + 1 until h.n).forall { b =>
            val he = h.hasEdge(a, b)
            val ge = g.hasEdge(perm(a), perm(b))
            if (induced) he == ge else !he || ge
          }
        }
      }.toLong
    }.sum
  }
}
