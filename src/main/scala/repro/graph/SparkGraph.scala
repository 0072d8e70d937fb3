package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** An undirected graph at the dataflow level: a canonicalised symmetric edge
  * DataFrame (`src`, `dst` — both `int`, both directions present, no
  * self-loops, no duplicates) plus the vertex-count `n` (IDs in `[0, n)`).
  *
  * This is GMS pipeline stage 1-2 (load + build representation) expressed in
  * Catalyst. DataFrame-friendly analytics (degrees, adjacency, reorderings,
  * similarity) stay on this level; backtracking kernels collect to a
  * broadcastable [[LocalGraph]] CSR via [[toLocal]].
  */
final case class SparkGraph(spark: SparkSession, edges: DataFrame, n: Int) {
  import spark.implicits._

  /** Number of undirected edges m. */
  lazy val m: Long = edges.count() / 2

  /** (v, degree) — vertices with at least one edge; isolated vertices have
    * implicit degree 0 (left-join against [[vertices]] when needed).
    */
  def degrees: DataFrame =
    edges.groupBy($"src" as "v").agg(count("*").cast("int") as "degree")

  /** All vertex IDs 0..n-1 as a DataFrame. */
  def vertices: DataFrame = spark.range(n).select($"id".cast("int") as "v")

  /** Degrees including isolated vertices (degree 0). */
  def degreesAll: DataFrame =
    vertices.join(degrees, Seq("v"), "left").select($"v", coalesce($"degree", lit(0)) as "degree")

  /** (v, neighbors) with neighbors a sorted int array — the CSR neighborhood
    * view at the DataFrame level.
    */
  def adjacency: DataFrame =
    edges.groupBy($"src" as "v").agg(sort_array(collect_list($"dst")) as "neighbors")

  /** Edges with src < dst, each undirected edge once. */
  def canonicalEdges: DataFrame = edges.where($"src" < $"dst")

  /** Collect to a driver-side CSR for broadcast into backtracking kernels. */
  def toLocal: LocalGraph = {
    val pairs = canonicalEdges
      .select($"src", $"dst")
      .as[(Int, Int)]
      .collect()
    LocalGraph.fromEdges(n, pairs)
  }

  /** A per-vertex value array (index = vertex ID) as a `(v, name)`
    * DataFrame — how results computed on the CSR return to this level.
    */
  def perVertex(name: String, values: Array[Int]): DataFrame = {
    require(values.length == n, s"${values.length} values for $n vertices")
    spark.createDataset(values.indices.map(v => (v, values(v)))).toDF("v", name)
  }

  /** Induced subgraph on the `keep` DataFrame (single column `v`). */
  def induced(keep: DataFrame): SparkGraph = {
    val k = keep.select($"v").distinct()
    val e = edges
      .join(k.withColumnRenamed("v", "src"), Seq("src"))
      .join(k.withColumnRenamed("v", "dst"), Seq("dst"))
      .select($"src", $"dst")
    SparkGraph(spark, e, n)
  }
}

object SparkGraph {

  /** Canonicalise an arbitrary (src, dst) DataFrame into a [[SparkGraph]]:
    * drop self-loops, symmetrise, dedupe. Caches the edge set — every
    * algorithm re-reads it.
    */
  def fromEdgeList(spark: SparkSession, raw: DataFrame, n: Int): SparkGraph = {
    val e = raw
      .select(col("src").cast("int") as "src", col("dst").cast("int") as "dst")
      .where(col("src") =!= col("dst"))
      .where(col("src") >= 0 && col("dst") >= 0 && col("src") < n && col("dst") < n)
    val sym = e.union(e.select(col("dst") as "src", col("src") as "dst")).distinct().cache()
    SparkGraph(spark, sym, n)
  }

  /** Lift a driver-side [[LocalGraph]] into the dataflow level. */
  def fromLocal(spark: SparkSession, g: LocalGraph, partitions: Int = 0): SparkGraph = {
    import spark.implicits._
    val parts = if (partitions > 0) partitions else spark.sparkContext.defaultParallelism
    val df = spark.sparkContext
      .parallelize(g.edgeList.toIndexedSeq, parts)
      .toDF("src", "dst")
    fromEdgeList(spark, df, g.n)
  }
}
