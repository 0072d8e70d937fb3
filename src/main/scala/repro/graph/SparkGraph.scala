package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** An undirected graph at the dataflow level: its vertex count `n` (IDs in
  * `[0, n)`), its raw edge rows `edges` (`src`, `dst`: either direction,
  * duplicates and self-loops allowed) and its CSR [[toLocal]], which every
  * algorithm reads.
  *
  * This is GMS pipeline stages 1-2 (load + build representation). A graph
  * has one of two sources:
  *  - a DataFrame of edges ([[SparkGraph.apply]], [[SparkGraph.fromEdgeList]]),
  *    which the first use of `toLocal` cleans into the CSR in one Spark job;
  *  - rows drawn on the driver as a pure function of their slice (the
  *    [[GraphGen]] generators and [[SparkGraph.fromLocal]]), which the first
  *    use of `toLocal` cleans into the CSR with no Spark job. `edges` is then
  *    a DataFrame whose tasks draw the same rows again.
  * Nothing but the CSR is materialised: `edges` is not cached, so an action
  * on it recomputes its rows.
  */
final class SparkGraph private (val spark: SparkSession, val n: Int,
                                source: Either[DataFrame, SparkGraph.RawEdges]) {

  /** The raw edge rows, as given or as drawn. */
  lazy val edges: DataFrame = source.fold(df => df, _.lift(spark))

  /** Number of undirected edges m, read from the CSR. */
  def m: Long = toLocal.m

  /** The CSR's edges with src < dst (each undirected edge once) as `int`
    * columns, lifted back to the dataflow level.
    */
  def canonicalEdges: DataFrame = SparkGraph.fromLocal(spark, toLocal).edges

  /** The graph's driver-side CSR, which the kernels broadcast; the only
    * place where the raw edges are cleaned.
    *
    * Every endpoint is checked while it is a `long`: one that is null or
    * outside `[0, n)` is rejected, before any narrowing to `Int`, with an
    * error that names the edge. Self-loops are dropped, both directions of
    * every other edge are packed into one `Array[Long]` of
    * `src << 32 | dst` ([[LocalGraph.packArc]]), sorted and deduped, and
    * the CSR is laid out from the high halves (offsets) and low halves
    * (adjacency). [[LocalGraph.fromEdges]] cleans with the same code.
    *
    * For a DataFrame source the first use runs one Spark job without a
    * shuffle: each partition packs, sorts and dedupes its edges, and the
    * driver concatenates the partitions' arrays and sorts and dedupes them
    * once more. For drawn rows the driver draws every slice into one array.
    *
    * The input is immutable, so the CSR is held and every later use returns
    * the same instance; initialisation runs once, also when threads race for
    * it. A build that throws is not held, and the next use builds (and
    * throws) again. The instance is shared: no code may write to its
    * `offsets` or `adj`.
    */
  lazy val toLocal: LocalGraph = source.fold(SparkGraph.collect(_, n), _.csr(n))

  /** A per-vertex value array (index = vertex ID) as a `(v, name)`
    * DataFrame — how results computed on the CSR return to this level.
    */
  def perVertex(name: String, values: Array[Int]): DataFrame = {
    import spark.implicits._
    require(values.length == n, s"${values.length} values for $n vertices")
    spark.createDataset(values.indices.map(v => (v, values(v)))).toDF("v", name)
  }
}

object SparkGraph {

  /** The graph of a `(src, dst)` DataFrame, taken as it is: no job runs
    * here. [[SparkGraph.toLocal]] drops self-loops, symmetrises and dedupes
    * while it builds the CSR, and rejects an endpoint that is null or
    * outside `[0, n)` with an error that names the edge.
    */
  def apply(spark: SparkSession, edges: DataFrame, n: Int): SparkGraph =
    new SparkGraph(spark, n, Left(edges))

  /** The graph of an arbitrary DataFrame's `src` and `dst` columns. */
  def fromEdgeList(spark: SparkSession, raw: DataFrame, n: Int): SparkGraph =
    SparkGraph(spark, raw.select("src", "dst"), n)

  /** A driver-side [[LocalGraph]] as a graph whose raw rows are its edge
    * list (u < v), in `defaultParallelism` slices of vertex IDs. Its CSR is
    * `LocalGraph.fromEdges(g.n, g.edgeList)`, built with no Spark job.
    */
  def fromLocal(spark: SparkSession, g: LocalGraph): SparkGraph = {
    val slices = spark.sparkContext.defaultParallelism
    drawn(spark, g.n, RawEdges(slices, (s, emit) => {
      var u = (s.toLong * g.n / slices).toInt
      val end = ((s + 1L) * g.n / slices).toInt
      while (u < end) {
        var i = g.offsets(u)
        while (i < g.offsets(u + 1)) { if (g.adj(i) > u) emit(u, g.adj(i)); i += 1 }
        u += 1
      }
    }))
  }

  /** The graph whose raw rows `raw` draws. */
  private[graph] def drawn(spark: SparkSession, n: Int, raw: RawEdges): SparkGraph =
    new SparkGraph(spark, n, Right(raw))

  /** A graph's raw edge rows as a pure function of their slice:
    * `draw(s, emit)` calls `emit(src, dst)` for each row of slice `s` of
    * `slices`, in order. Nothing is held but the function, so the rows can
    * be drawn on the driver and again in Spark tasks.
    */
  private[graph] final case class RawEdges(slices: Int, draw: (Int, (Int, Int) => Unit) => Unit) {

    /** The rows as an `int` `(src, dst)` DataFrame, one partition per slice. */
    def lift(spark: SparkSession): DataFrame = {
      import spark.implicits._
      spark.sparkContext.parallelize(0 until slices, slices).flatMap { s =>
        val rows = Array.newBuilder[(Int, Int)]
        draw(s, (u, v) => rows += ((u, v)))
        rows.result()
      }.toDF("src", "dst")
    }

    /** The CSR of every slice's rows, drawn on the driver. */
    def csr(n: Int): LocalGraph = {
      val arcs = new scala.collection.mutable.ArrayBuilder.ofLong
      var s = 0
      while (s < slices) { draw(s, (u, v) => LocalGraph.addEdge(arcs, n, u, v)); s += 1 }
      val all = arcs.result()
      LocalGraph.fromSortedArcs(n, all, LocalGraph.sortDistinct(all))
    }
  }

  /** The CSR of a DataFrame's edges, cleaned in one Spark job. */
  private def collect(edges: DataFrame, n: Int): LocalGraph = {
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
}
