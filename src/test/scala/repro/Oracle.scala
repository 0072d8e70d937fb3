package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import repro.graph.SparkGraph
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle for results computed on a graph.
  *
  * ``assertEquivalent(sparkDf, sql, g)`` loads the graph's input edges
  * ``g.edges`` as they are (either direction, duplicates and self-loops
  * allowed) into DuckDB (via JDBC, in-process), runs ``sql`` over the view
  * ``edges``, and asserts the sorted rows match ``sparkDf``. The view
  * canonicalises the input in DuckDB's own SQL, so the oracle never reads
  * the CSR that [[repro.graph.SparkGraph.toLocal]] builds from the same
  * edges. This catches wrong results from a rewritten kernel or a wrong
  * CSR — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** Both directions of every non-loop input edge, each once. */
  private val edgesView =
    """CREATE VIEW edges AS
      |SELECT DISTINCT src, dst FROM (
      |  SELECT CAST(src AS INTEGER) AS src, CAST(dst AS INTEGER) AS dst FROM raw_edges
      |  UNION ALL
      |  SELECT CAST(dst AS INTEGER), CAST(src AS INTEGER) FROM raw_edges)
      |WHERE src <> dst""".stripMargin

  def assertEquivalent(sparkDf: DataFrame, sql: String, g: SparkGraph): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      conn.createStatement.execute("CREATE TABLE raw_edges (src BIGINT, dst BIGINT)")
      // Collect once; this is an oracle, not a bench — keep graphs small.
      val ps = conn.prepareStatement("INSERT INTO raw_edges VALUES (?, ?)")
      g.edges.collect().foreach { r =>
        (0 to 1).foreach(i => ps.setLong(i + 1, r.getAs[Number](i).longValue))
        ps.addBatch()
      }
      ps.executeBatch(); ps.close()
      conn.createStatement.execute(edgesView)
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
