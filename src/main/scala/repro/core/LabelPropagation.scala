package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.SparkGraph

/** Label-propagation community detection (paper Table 4, Raghavan et al.):
  * every vertex iteratively adopts the most frequent label among its
  * neighbors (ties → smallest label), synchronously, until stable or
  * `maxIter` rounds. A vertex without neighbors keeps its label. The paper's
  * example of convergence-based, non-overlapping community detection; runs
  * on the collected CSR.
  */
object LabelPropagation {

  /** (v, community) after propagation, and the number of synchronous rounds
    * run: the round that changes no label is counted, so a graph that
    * settles reports one more round than it changed labels in, and one that
    * never settles reports `maxIter`.
    */
  def run(g: SparkGraph, maxIter: Int = 20): (DataFrame, Int) = {
    val local = g.toLocal
    var label = Array.range(0, local.n)
    var next = new Array[Int](local.n)
    val freq = new Array[Int](local.n) // freq(l) = neighbors of v labelled l; zero between vertices
    var iter = 0
    var changed = true
    while (iter < maxIter && changed) {
      changed = false
      var v = 0
      while (v < local.n) {
        val lo = local.offsets(v); val hi = local.offsets(v + 1)
        var best = label(v)
        var bestFreq = 0
        var i = lo
        while (i < hi) {
          val l = label(local.adj(i))
          freq(l) += 1
          if (freq(l) > bestFreq || (freq(l) == bestFreq && l < best)) { best = l; bestFreq = freq(l) }
          i += 1
        }
        i = lo
        while (i < hi) { freq(label(local.adj(i))) = 0; i += 1 }
        next(v) = best
        if (best != label(v)) changed = true
        v += 1
      }
      val t = label; label = next; next = t
      iter += 1
    }
    (g.perVertex("community", label), iter)
  }
}
