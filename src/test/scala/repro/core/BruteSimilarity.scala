package repro.core

import repro.graph.LocalGraph

/** Driver-side brute-force similarity of one vertex pair, written out from
  * the measure definitions (Table 4) apart from [[Similarity]]: the common
  * neighbours come from a membership test, and each weight is summed in
  * ascending neighbour order.
  */
object BruteSimilarity {

  /** (|N(u) ∩ N(v)|, the score of (u, v) under `m`). */
  def apply(g: LocalGraph, m: Similarity.Measure, u: Int, v: Int): (Int, Double) = {
    val common = g.neighbors(u).filter(g.hasEdge(v, _))
    val cn = common.length
    val du = g.degree(u)
    val dv = g.degree(v)
    val score = m match {
      case Similarity.CommonNeighbors        => cn.toDouble
      case Similarity.Jaccard                => cn.toDouble / (du + dv - cn)
      case Similarity.Overlap                => cn.toDouble / math.min(du, dv)
      case Similarity.AdamicAdar             => common.map(w => 1.0 / math.log(g.degree(w))).sum
      case Similarity.ResourceAllocation     => common.map(w => 1.0 / g.degree(w)).sum
      case Similarity.TotalNeighbors         => (du + dv - cn).toDouble
      case Similarity.PreferentialAttachment => du.toDouble * dv
    }
    (cn, score)
  }
}
