package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.SparkGraph

/** Link prediction with accuracy assessment (paper §6.7).
  *
  * E_rndm ⊆ E is removed at random; the predictor scores candidate pairs of
  * the sparsified graph E_sparse = E \ E_rndm with a similarity measure S,
  * predicts the top-|E_rndm| non-adjacent pairs, and the effectiveness is
  * eff = |E_predict ∩ E_rndm| (reported also as a ratio). The split is
  * dataflow; the scoring runs on the collected CSR of E_sparse.
  */
object LinkPrediction {

  final case class Result(removed: Long, hits: Long) {
    def effectiveness: Double = if (removed > 0) hits.toDouble / removed else 0.0
  }

  /** Prediction order of (score, u, v): score descending, then u, then v. */
  private val predictionOrder = Ordering.Tuple3(Ordering.Double.TotalOrdering.reverse, Ordering.Int, Ordering.Int)

  /** Split the edge set: (E_sparse graph, E_rndm as (u,v) u<v).
    *
    * Edge (u, v) is removed iff a uniform draw in [0, 1), the top 53 bits of
    * `xxhash64(u, v, seed)`, falls below `frac`. The draw depends on nothing
    * but (u, v, seed), so the split does not change with the edge set's
    * partitioning, and both halves can be recomputed without caching.
    */
  def split(g: SparkGraph, frac: Double, seed: Long): (SparkGraph, DataFrame) = {
    import g.spark.implicits._
    val draw = shiftrightunsigned(xxhash64($"src", $"dst", lit(seed)), 11).cast("double") / math.pow(2, 53)
    val canon = g.canonicalEdges.select($"src" as "u", $"dst" as "v", (draw < frac) as "drop")
    val removed = canon.where($"drop").select($"u", $"v")
    val keptEdges = canon.where(!$"drop").select($"u" as "src", $"v" as "dst")
    (SparkGraph.fromEdgeList(g.spark, keptEdges, g.n), removed)
  }

  /** Run the full §6.7 protocol. The candidates are the non-adjacent pairs
    * of E_sparse with ≥1 common neighbour, scored in the tasks; each task
    * keeps its best |E_rndm| in a bounded heap (`takeOrdered`), and the
    * driver merges the heaps.
    */
  def run(g: SparkGraph, measure: Similarity.Measure = Similarity.Jaccard,
          frac: Double = 0.1, seed: Long = 42): Result = {
    import g.spark.implicits._
    val (sparse, removedDf) = split(g, frac, seed)
    val removed = removedDf.as[(Int, Int)].collect().toSet
    if (removed.isEmpty) return Result(0, 0)
    val candidates = Similarity.pairs(sparse, edges = false) { (acc, u, v) =>
      (acc.score(measure, u, v), u, v, acc.g.hasEdge(u, v))
    }
    val predicted = candidates.collect { case (s, u, v, false) => (s, u, v) }.takeOrdered(removed.size)(predictionOrder)
    Result(removed.size, predicted.count { case (_, u, v) => removed((u, v)) })
  }
}
