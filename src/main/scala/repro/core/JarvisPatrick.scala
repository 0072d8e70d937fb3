package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.graph.{ConnectedComponents, LocalGraph, SparkGraph}

/** Jarvis-Patrick clustering (paper §6.5 / Table 4): two adjacent vertices
  * land in the same cluster when each is among the other's `knn` most
  * similar neighbors *and* they share at least `minShared` neighbors.
  * Clusters are the connected components of the surviving edges —
  * single-level, and (via the shared-neighbor test) the paper's example of
  * similarity-driven clustering. The similarity, top-knn and mutual /
  * shared-neighbor stages are dataflow; the surviving edges are collected
  * into a CSR for [[ConnectedComponents]].
  */
object JarvisPatrick {

  /** (v, cluster) for all n vertices (singletons keep their own ID). */
  def cluster(g: SparkGraph, knn: Int, minShared: Int,
              measure: Similarity.Measure = Similarity.CommonNeighbors): DataFrame = {
    import g.spark.implicits._
    // Directed similarity per adjacent pair, both directions.
    val s = Similarity.edgeScores(g, measure)
    val directed = s.select($"u" as "a", $"v" as "b", $"score")
      .union(s.select($"v" as "a", $"u" as "b", $"score"))
    // Keep each vertex's top-knn most similar neighbors.
    val topk = directed
      .withColumn("rk", row_number().over(
        Window.partitionBy($"a").orderBy($"score".desc, $"b")))
      .where($"rk" <= knn)
      .select($"a", $"b")
    // Mutual-kNN test: (u,v) and (v,u) both present.
    val mutual = topk.as("t1")
      .join(topk.as("t2"), col("t1.a") === col("t2.b") && col("t1.b") === col("t2.a"))
      .where(col("t1.a") < col("t1.b"))
      .select(col("t1.a") as "u", col("t1.b") as "v")
    // Shared-neighbor threshold.
    val cn = Similarity.commonNeighborStats(g).select($"u", $"v", $"cn")
    val kept = mutual.join(cn, Seq("u", "v"), "left")
      .where(coalesce($"cn", lit(0L)) >= minShared)
      .select($"u", $"v")
      .as[(Int, Int)].collect()
    g.perVertex("cluster", ConnectedComponents.run(LocalGraph.fromEdges(g.n, kept)))
  }
}
