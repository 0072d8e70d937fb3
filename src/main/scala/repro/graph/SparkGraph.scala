package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** An undirected graph at the dataflow level: its input edge list `edges`
  * (`src`, `dst`, as given: either direction, duplicates and self-loops
  * allowed) plus the vertex count `n` (IDs in `[0, n)`).
  *
  * This is GMS pipeline stages 1-2 (load + build representation): loading
  * and the generators stay in Catalyst, and the representation is built in
  * one step, [[toLocal]], the graph's one [[LocalGraph]] CSR, which every
  * algorithm reads. Nothing else is materialised: `edges` is not cached, so
  * an action on it recomputes its plan.
  */
final case class SparkGraph(spark: SparkSession, edges: DataFrame, n: Int) {
  import spark.implicits._

  /** Number of undirected edges m, read from the CSR. */
  def m: Long = toLocal.m

  /** The CSR's edges with src < dst (each undirected edge once) as `int`
    * columns, lifted back to the dataflow level.
    */
  def canonicalEdges: DataFrame = SparkGraph.fromLocal(spark, toLocal).edges

  /** The graph's driver-side CSR, which the kernels broadcast; the only
    * place where the input edges are cleaned.
    *
    * Built by the first use in one Spark job without a shuffle. Each
    * partition reads both endpoints of its edges as `long` and rejects an
    * endpoint that is null or outside `[0, n)` before narrowing it to `Int`,
    * with an error that names the edge. It drops self-loops, packs both
    * directions of every other edge into one `Array[Long]` of
    * `src << 32 | dst` ([[LocalGraph.packArc]]), and sorts and dedupes them.
    * The driver concatenates the partitions' arrays, sorts and dedupes them
    * once more, and lays the CSR out from the high halves (offsets) and low
    * halves (adjacency). [[LocalGraph.fromEdges]] cleans with the same code.
    *
    * The input is immutable, so the CSR is held and every later use returns
    * the same instance; initialisation runs once, also when threads race for
    * it. A build that throws is not held, and the next use builds (and
    * throws) again. The instance is shared: no code may write to its
    * `offsets` or `adj`.
    */
  lazy val toLocal: LocalGraph = {
    val n = this.n
    val parts = edges.select(col("src").cast("long"), col("dst").cast("long")).queryExecution.toRdd
      .mapPartitions { rows =>
        val arcs = new scala.collection.mutable.ArrayBuilder.ofLong
        rows.foreach { r =>
          def end(i: Int): Any = if (r.isNullAt(i)) null else r.getLong(i)
          if (r.isNullAt(0) || r.isNullAt(1)) LocalGraph.outside(n, end(0), end(1))
          LocalGraph.addEdge(arcs, n, r.getLong(0), r.getLong(1))
        }
        val part = arcs.result()
        Iterator.single(java.util.Arrays.copyOf(part, LocalGraph.sortDistinct(part)))
      }
      .collect()
    val arcs = Array.concat(parts.toIndexedSeq: _*)
    LocalGraph.fromSortedArcs(n, arcs, LocalGraph.sortDistinct(arcs))
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

  /** The graph of an arbitrary (src, dst) DataFrame, taken as it is: no
    * job runs here. [[SparkGraph.toLocal]] drops self-loops, symmetrises
    * and dedupes while it builds the CSR, and rejects an endpoint that is
    * null or outside `[0, n)` with an error that names the edge.
    */
  def fromEdgeList(spark: SparkSession, raw: DataFrame, n: Int): SparkGraph =
    SparkGraph(spark, raw.select("src", "dst"), n)

  /** Lift a driver-side [[LocalGraph]] into the dataflow level. */
  def fromLocal(spark: SparkSession, g: LocalGraph): SparkGraph = {
    import spark.implicits._
    fromEdgeList(spark, spark.sparkContext.parallelize(g.edgeList.toIndexedSeq).toDF("src", "dst"), g.n)
  }
}
