package repro.core

import org.apache.spark.sql.catalyst.expressions.XXH64
import repro.graph.{LocalGraph, SparkGraph}
import scala.collection.mutable

/** Link prediction with accuracy assessment (paper §6.7).
  *
  * E_rndm ⊆ E is removed at random; the predictor scores candidate pairs of
  * the sparsified graph E_sparse = E \ E_rndm with a similarity measure S,
  * predicts the top-|E_rndm| non-adjacent pairs, and the effectiveness is
  * eff = |E_predict ∩ E_rndm| (reported also as a ratio). The split and the
  * scoring both run on the CSR; the scoring is one [[SeedRunner.run]].
  */
object LinkPrediction {

  final case class Result(removed: Long, hits: Long) {
    def effectiveness: Double = if (removed > 0) hits.toDouble / removed else 0.0
  }

  /** Prediction order of (score, u, v): score descending, then u, then v. */
  private val predictionOrder = Ordering.Tuple3(Ordering.Double.TotalOrdering.reverse, Ordering.Int, Ordering.Int)

  /** Split the CSR's edges: (E_sparse as a CSR, E_rndm as (u, v), u < v).
    *
    * Edge (u, v) is removed iff a uniform draw in [0, 1), the top 53 bits of
    * Spark's XXH64 of (u, v, seed), chained as Spark SQL hashes an `int`,
    * an `int` and a `long` column from its default seed 42, falls below
    * `frac`. The draw depends on nothing but (u, v, seed).
    */
  def split(g: LocalGraph, frac: Double, seed: Long): (LocalGraph, Set[(Int, Int)]) = {
    val (removed, kept) = g.edgeList.partition { case (u, v) =>
      (XXH64.hashLong(seed, XXH64.hashInt(v, XXH64.hashInt(u, 42))) >>> 11).toDouble / (1L << 53) < frac
    }
    (LocalGraph.fromEdges(g.n, kept), removed.toSet)
  }

  /** Run the full §6.7 protocol. The candidates are the non-adjacent pairs
    * of E_sparse with ≥1 common neighbour, scored on the runner's threads;
    * each thread keeps its best |E_rndm| in a bounded heap, and the driver
    * takes the best |E_rndm| of the threads' heaps.
    */
  def run(g: SparkGraph, measure: Similarity.Measure = Similarity.Jaccard,
          frac: Double = 0.1, seed: Long = 42): Result = {
    val (sparse, removed) = split(g.toLocal, frac, seed)
    val k = removed.size
    if (k == 0) return Result(0, 0)
    val best = Similarity.pairs(g.spark.sparkContext, sparse, edges = false) { (acc, ps) =>
      val heap = mutable.PriorityQueue.empty(predictionOrder) // head: the worst candidate kept
      ps.foreach { case (u, v) =>
        if (!acc.g.hasEdge(u, v)) {
          val c = (acc.score(measure, u, v), u, v)
          if (heap.size < k) heap += c
          else if (predictionOrder.lt(c, heap.head)) { heap.dequeue(); heap += c }
        }
      }
      heap.toArray
    }
    val predicted = best.flatten.sorted(predictionOrder).take(k)
    Result(k, predicted.count { case (_, u, v) => removed((u, v)) })
  }
}
