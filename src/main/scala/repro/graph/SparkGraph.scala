package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** An undirected graph at the dataflow level: a canonicalised symmetric edge
  * DataFrame (`src`, `dst` — both `int`, both directions present, no
  * self-loops, no duplicates) plus the vertex-count `n` (IDs in `[0, n)`).
  *
  * This is GMS pipeline stage 1-2 (load + build representation) expressed in
  * Catalyst. Only loading, the generators and link prediction's
  * edge split stay on this level; every algorithm runs on the graph's one
  * [[LocalGraph]] CSR, [[toLocal]], which is collected on first use and
  * then held, so a kernel run again on the same graph submits only its own
  * jobs.
  */
final case class SparkGraph(spark: SparkSession, edges: DataFrame, n: Int) {
  import spark.implicits._

  /** Number of undirected edges m. */
  lazy val m: Long = edges.count() / 2

  /** Edges with src < dst, each undirected edge once. */
  def canonicalEdges: DataFrame = edges.where($"src" < $"dst")

  /** The graph's driver-side CSR, which the kernels broadcast.
    *
    * Collected by the first use, in one Spark job: each partition packs its
    * arcs (both directions, as the edge set is symmetric) into one
    * `Array[Long]` of `src << 32 | dst`. The driver concatenates the arrays
    * and sorts them once, so the high halves give the offsets and the low
    * halves the adjacency. Nothing here dedupes or symmetrises, so the
    * result goes through [[LocalGraph.validate]]: an edge set that is not
    * canonical (possible through the public constructor) fails with the
    * first bad vertex named.
    *
    * The edge set is immutable, so the validated CSR is held and every later
    * use returns the same instance; initialisation runs once, also when
    * threads race for it. A collect that throws is not held, and the next
    * use collects (and throws) again. The instance is shared: no code may
    * write to its `offsets` or `adj`.
    */
  lazy val toLocal: LocalGraph = {
    val parts = edges.select($"src".cast("int"), $"dst".cast("int")).queryExecution.toRdd
      .mapPartitions { rows =>
        val arcs = new scala.collection.mutable.ArrayBuilder.ofLong
        rows.foreach(r => arcs += LocalGraph.packArc(r.getInt(0), r.getInt(1)))
        Iterator.single(arcs.result())
      }
      .collect()
    LocalGraph.fromArcs(n, Array.concat(parts.toIndexedSeq: _*))
  }

  /** A per-vertex value array (index = vertex ID) as a `(v, name)`
    * DataFrame — how results computed on the CSR return to this level.
    */
  def perVertex(name: String, values: Array[Int]): DataFrame = {
    require(values.length == n, s"${values.length} values for $n vertices")
    spark.createDataset(values.indices.map(v => (v, values(v)))).toDF("v", name)
  }
}

object SparkGraph {

  /** Canonicalise an arbitrary (src, dst) DataFrame into a [[SparkGraph]]:
    * drop self-loops, symmetrise, dedupe.
    *
    * An endpoint that is null or outside `[0, n)` is an error that names the
    * offending edge. It is raised by the first action on the graph (or, for
    * a driver-local input, while its plan is optimised); there is no
    * separate validation job. The edge set is cached in
    * `defaultParallelism` partitions (one per core in local mode): `m` and
    * link prediction's split read it, and [[SparkGraph.toLocal]] collects it
    * once, with one task per partition.
    */
  def fromEdgeList(spark: SparkSession, raw: DataFrame, n: Int): SparkGraph = {
    def outside(c: Column): Column = c.isNull || c < 0 || c >= n
    val bad = raise_error(format_string(s"edge (%s, %s) has an endpoint outside [0, $n)", col("src"), col("dst")))
    val e = raw
      .select(
        when(outside(col("src")) || outside(col("dst")), bad).otherwise(col("src").cast("int")) as "src",
        col("dst").cast("int") as "dst")
      .where(col("src") =!= col("dst"))
    val sym = e.union(e.select(col("dst") as "src", col("src") as "dst"))
      .distinct()
      .coalesce(spark.sparkContext.defaultParallelism)
      .cache()
    SparkGraph(spark, sym, n)
  }

  /** Lift a driver-side [[LocalGraph]] into the dataflow level. */
  def fromLocal(spark: SparkSession, g: LocalGraph): SparkGraph = {
    import spark.implicits._
    fromEdgeList(spark, spark.sparkContext.parallelize(g.edgeList.toIndexedSeq).toDF("src", "dst"), g.n)
  }
}
