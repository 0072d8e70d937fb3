package repro.core

import repro.graph.LocalGraph

/** Order-driven greedy graph coloring (paper Table 4 "Minimum Graph
  * Coloring", Jones-Plassmann family).
  *
  * Jones-Plassmann with priority function ρ produces exactly the sequential
  * greedy coloring along ρ's order, so the kernel is greedy-along-order; the
  * interesting GMS knob is *which* order (stage-3 modularity): processing in
  * reverse degeneracy order guarantees ≤ d+1 colors (the classic
  * Matula-Beck bound the paper's reordering section leans on).
  */
object Coloring {

  /** Greedy colors along ascending `rank`; returns (colors, #colors). */
  def greedy(g: LocalGraph, rank: Array[Int]): (Array[Int], Int) = {
    val n = g.n
    val byRank = Array.range(0, n).sortBy(rank)
    val colors = Array.fill(n)(-1)
    var numColors = 0
    val forbidden = new Array[Int](n + 1) // forbidden(c) == v+1 ⇒ c used at v
    byRank.zipWithIndex.foreach { case (v, stamp) =>
      var i = g.offsets(v)
      while (i < g.offsets(v + 1)) {
        val c = colors(g.adj(i))
        if (c >= 0) forbidden(c) = stamp + 1
        i += 1
      }
      var c = 0
      while (forbidden(c) == stamp + 1) c += 1
      colors(v) = c
      numColors = math.max(numColors, c + 1)
    }
    (colors, numColors)
  }

  /** Color in *reverse* elimination order (later-removed first) — the order
    * that realises the ≤ degeneracy+1 bound when `rank` is a degeneracy or
    * ADG order.
    */
  def greedyReverse(g: LocalGraph, rank: Array[Int]): (Array[Int], Int) = {
    val n = g.n
    greedy(g, Array.tabulate(n)(v => n - 1 - rank(v)))
  }

  /** True iff no edge is monochromatic. */
  def isValid(g: LocalGraph, colors: Array[Int]): Boolean =
    g.edgeList.forall { case (u, v) => colors(u) != colors(v) }
}
