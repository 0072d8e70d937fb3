package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.SparkGraph

/** Link prediction with accuracy assessment (paper §6.7).
  *
  * E_rndm ⊆ E is removed at random; the predictor scores candidate pairs of
  * the sparsified graph E_sparse = E \ E_rndm with a similarity measure S,
  * predicts the top-|E_rndm| non-adjacent pairs, and the effectiveness is
  * eff = |E_predict ∩ E_rndm| (reported also as a ratio). Pure dataflow.
  */
object LinkPrediction {

  final case class Result(removed: Long, hits: Long) {
    def effectiveness: Double = if (removed > 0) hits.toDouble / removed else 0.0
  }

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

  /** Run the full §6.7 protocol. */
  def run(g: SparkGraph, measure: Similarity.Measure = Similarity.Jaccard,
          frac: Double = 0.1, seed: Long = 42): Result = {
    import g.spark.implicits._
    val (sparse, removed) = split(g, frac, seed)
    val nRemoved = removed.count()
    if (nRemoved == 0) return Result(0, 0)
    // Candidates: pairs with ≥1 common neighbor in E_sparse, minus existing edges.
    val cand = Similarity.scores(sparse, measure)
      .join(sparse.canonicalEdges.select($"src" as "u", $"dst" as "v"),
            Seq("u", "v"), "left_anti")
    val predicted = cand.orderBy($"score".desc, $"u", $"v").limit(nRemoved.toInt)
    val hits = predicted.join(removed, Seq("u", "v"), "left_semi").count()
    Result(nRemoved, hits)
  }
}
