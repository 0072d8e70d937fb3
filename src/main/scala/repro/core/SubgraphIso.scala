package repro.core

import org.apache.spark.sql.functions.col
import repro.graph.{LocalGraph, SparkGraph}
import repro.setalg.{SetFactory, VertexSet}

/** Subgraph isomorphism (paper §6.4): VF2/VF3-light-style recursive
  * backtracking, counting embeddings of a small labeled query graph H in a
  * labeled target graph G — induced and non-induced (§A).
  *
  * Candidate generation is set algebra: the candidates for the next query
  * vertex are ∩ over its already-mapped query neighbors p of N_G(φ(p)),
  * filtered by label / degree / injectivity (and non-edges for induced).
  *
  * Parallel variants mirror the paper's optimizations:
  *  - [[Base]]       — node-parallel static split of the root candidates into
  *                     as many chunks as cores (the VF3-light parallel baseline);
  *  - [[WorkSplit]]  — split work at recursion depth 2: tasks are
  *                     (root, second) mapping pairs, a much finer unit;
  *  - [[WorkSteal]]  — the paper's lock-free stealing queue emulated by
  *                     over-decomposition (32× more tasks than cores,
  *                     scheduler-balanced; same effect, no shared queue
  *                     exists across Spark executors);
  *  - [[Precompute]] — per-query-vertex candidate sets prefiltered by
  *                     (label, degree, neighbor-degree sum) broadcast ahead
  *                     of the search (the paper's "precompute scheme").
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

  /** Count embeddings extending a fixed prefix of the search order.
    *
    * @param prefix mapped target vertices for searchOrder positions 0..prefix.length-1
    */
  private[core] def countFrom(g: LocalGraph, gLabels: Array[Int], p: Pattern,
                              order: Array[Int], induced: Boolean,
                              factory: SetFactory,
                              cand: Array[VertexSet],   // null ⇒ no precompute
                              prefix: Array[Int]): Long = {
    val h = p.graph
    val qn = h.n
    val mapping = Array.fill(qn)(-1)
    val used = new Array[Boolean](g.n)
    var count = 0L

    def feasible(q: Int, v: Int, pos: Int): Boolean = {
      if (used(v)) return false
      if (gLabels(v) != p.labels(q)) return false
      if (g.degree(v) < h.degree(q)) return false
      // Precomputed candidate filter: O(log) membership, no set materialisation.
      if (cand != null && !cand(q).contains(v)) return false
      // All mapped query neighbors must map to target neighbors of v ...
      val hn = h.neighbors(q)
      var i = 0
      while (i < hn.length) {
        val m = mapping(hn(i))
        if (m >= 0 && !g.hasEdge(v, m)) return false
        i += 1
      }
      // ... and for induced matching, mapped non-neighbors must stay non-edges.
      if (induced) {
        var j = 0
        while (j < pos) {
          val q2 = order(j)
          val m2 = mapping(q2)
          if (!h.hasEdge(q, q2) && g.hasEdge(v, m2)) return false
          j += 1
        }
      }
      true
    }

    def rec(pos: Int): Unit = {
      if (pos == qn) { count += 1; return }
      val q = order(pos)
      // Set-algebra candidate generation: intersect target neighborhoods of
      // the already-mapped query neighbors of q.
      val mappedNbrs = h.neighbors(q).filter(mapping(_) >= 0)
      val candidates: VertexSet =
        if (mappedNbrs.isEmpty) {
          if (cand != null) cand(q)
          else factory.fromSorted(Array.range(0, g.n), g.n)
        } else {
          val s = factory.fromSorted(g.neighbors(mapping(mappedNbrs.head)), g.n)
          var i = 1
          while (i < mappedNbrs.length) {
            s.intersectInplace(factory.fromSorted(g.neighbors(mapping(mappedNbrs(i))), g.n))
            i += 1
          }
          s
        }
      val it = candidates.iterator
      while (it.hasNext) {
        val v = it.next()
        if (feasible(q, v, pos)) {
          mapping(q) = v; used(v) = true
          rec(pos + 1)
          mapping(q) = -1; used(v) = false
        }
      }
    }

    // Install the prefix (verifying feasibility so invalid tasks yield 0).
    var ok = true
    var i = 0
    while (ok && i < prefix.length) {
      val q = order(i)
      if (feasible(q, prefix(i), i)) { mapping(q) = prefix(i); used(prefix(i)) = true }
      else ok = false
      i += 1
    }
    if (ok) rec(prefix.length)
    count
  }

  /** Precomputed candidate set per query vertex: same label, sufficient
    * degree, and sufficient neighbor-degree sum (a cheap VF3-style invariant).
    */
  private def precomputeCandidates(g: LocalGraph, gLabels: Array[Int],
                                   p: Pattern, factory: SetFactory): Array[VertexSet] = {
    val h = p.graph
    def nbrDegSum(gr: LocalGraph, v: Int): Long = gr.neighbors(v).map(gr.degree(_).toLong).sum
    val hSig = Array.tabulate(h.n)(q => nbrDegSum(h, q))
    Array.tabulate(h.n) { q =>
      val cands = (0 until g.n).filter { v =>
        gLabels(v) == p.labels(q) && g.degree(v) >= h.degree(q) && nbrDegSum(g, v) >= hSig(q)
      }.toArray
      factory.fromSorted(cands, g.n)
    }
  }

  /** Distributed embedding count.
    *
    * @param tasks caps parallel tasks (0 ⇒ variant-specific default); used by
    *              the Fig.-7 thread-scaling sweep.
    */
  def count(g: SparkGraph, gLabels: Array[Int], pattern: Pattern,
            induced: Boolean, variant: Variant = WorkSteal,
            factory: SetFactory = SetFactory.sorted, tasks: Int = 0): Long = {
    val spark = g.spark
    import spark.implicits._
    val local = g.toLocal
    val order = searchOrder(pattern.graph)
    val cand = if (variant == Precompute) precomputeCandidates(local, gLabels, pattern, factory) else null
    val cores = spark.sparkContext.defaultParallelism
    // `tasks` is the emulated thread count: work runs in exactly this many
    // partitions (the Fig.-7 scaling axis). Variants differ in the *units*
    // (coarse roots vs depth-2 pairs) and their *placement* (contiguous =
    // static split with its load imbalance; round-robin = the balanced
    // placement a work-stealing queue converges to).
    val nTasks = if (tasks > 0) tasks else cores

    val roots = (0 until local.n).map(v => Array(v))
    val canSplit = pattern.graph.n >= 2 && pattern.graph.hasEdge(order(0), order(1))
    val units: Seq[Array[Int]] = variant match {
      case WorkSplit | WorkSteal | Precompute if canSplit =>
        // Depth-2 split: (root, second) pairs; valid because the search order
        // makes q1 adjacent to q0, so φ(q1) must be a target neighbor of root.
        roots.flatMap { pre =>
          val nb = local.neighbors(pre(0))
          if (nb.isEmpty) Seq(pre) else nb.map(s => Array(pre(0), s))
        }
      case _ => roots
    }
    val withIdx = units.zipWithIndex.map { case (u, i) => (i.toLong, u.toSeq) }
    val bcG = spark.sparkContext.broadcast(local)
    val bcL = spark.sparkContext.broadcast(gLabels)
    val bcP = spark.sparkContext.broadcast(pattern)
    val bcC = spark.sparkContext.broadcast(cand)
    try {
      val ds = spark.createDataset(withIdx)
      val placed = variant match {
        case Base | WorkSplit =>
          // Static contiguous split of the unit list.
          ds.repartitionByRange(nTasks, col("_1"))
        case WorkSteal | Precompute =>
          // Balanced round-robin placement (stealing emulation).
          ds.repartition(nTasks)
      }
      placed
        .map { case (_, pre) =>
          countFrom(bcG.value, bcL.value, bcP.value, order, induced,
                    factory, bcC.value, pre.toArray)
        }
        .reduce(_ + _)
    } finally { bcG.destroy(); bcL.destroy(); bcP.destroy(); bcC.destroy() }
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
