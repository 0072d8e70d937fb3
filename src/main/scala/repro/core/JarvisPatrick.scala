package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.{ConnectedComponents, LocalGraph, SparkGraph}

/** Jarvis-Patrick clustering (paper §6.5 / Table 4): two adjacent vertices
  * land in the same cluster when each is among the other's `knn` most
  * similar neighbors *and* they share at least `minShared` neighbors.
  * Clusters are the connected components of the surviving edges —
  * single-level, and (via the shared-neighbor test) the paper's example of
  * similarity-driven clustering. Everything runs on the collected CSR: one
  * [[Similarity.Wedges]] row per vertex gives its edges' scores and shared
  * counts, and [[ConnectedComponents]] labels the surviving edges.
  */
object JarvisPatrick {

  /** (v, cluster) for all n vertices (singletons keep their own ID). */
  def cluster(g: SparkGraph, knn: Int, minShared: Int,
              measure: Similarity.Measure = Similarity.CommonNeighbors): DataFrame = {
    val local = g.toLocal
    // Per vertex a: its top-knn neighbours by (score desc, ID), and those of
    // them it shares at least minShared neighbours with.
    val (top, shared) = SeedRunner.byUnit(local.n, SeedRunner.run(g.spark.sparkContext, local, local.n, 0) { (lg, seeds) =>
      val acc = new Similarity.Wedges(lg)
      seeds.map { a =>
        acc.row(a, -1)
        // Neighbours ascend and sortWith is stable, so equal scores stay in ID order.
        val best = lg.neighbors(a).sortWith(acc.score(measure, a, _) > acc.score(measure, a, _)).take(knn)
        (a, (best, best.filter(acc.cn(_) >= minShared)))
      }.toArray
    }).unzip
    val kept = for (a <- 0 until local.n; b <- shared(a) if a < b && top(b).contains(a)) yield (a, b)
    g.perVertex("cluster", ConnectedComponents.run(LocalGraph.fromEdges(local.n, kept)))
  }
}
