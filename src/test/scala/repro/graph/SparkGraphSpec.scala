package repro.graph

import org.apache.spark.repro.ListenerBus
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.KClique

class SparkGraphSpec extends SparkSpec {

  private lazy val g = {
    val df = spark.createDataFrame(Seq(
      (0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (0, 2), (2, 0), (0, 2)
    )).toDF("src", "dst")
    SparkGraph.fromEdgeList(spark, df, 5)
  }

  test("fromEdgeList drops self-loops and duplicates, symmetrises") {
    import spark.implicits._
    val canon = g.canonicalEdges.as[(Int, Int)].collect().toSet
    assert(canon == Set((0, 1), (1, 2), (2, 3), (0, 2)))
    assert(g.m == 4)
    // symmetric: both directions present
    assert(g.toLocal.adj.length == 8)
  }

  test("degrees match DuckDB oracle") {
    val local = g.toLocal
    Oracle.assertEquivalent(
      g.perVertex("degree", Array.tabulate(g.n)(local.degree)).where(col("degree") > 0),
      "SELECT CAST(src AS INT) AS v, COUNT(*) AS degree FROM edges GROUP BY src",
      g)
  }

  test("toLocal round-trips through fromLocal") {
    val l = g.toLocal
    assert(l.n == 5 && l.m == 4)
    // Through the lifted rows as a DataFrame, collected in a Spark job.
    val g2 = SparkGraph(spark, SparkGraph.fromLocal(spark, l).edges, l.n)
    assert(g2.toLocal.edgeList.toSeq.sorted == l.edgeList.toSeq.sorted)
  }

  test("out-of-range endpoints are rejected") {
    // Every input fails on the first use of its CSR, naming the edge.
    for ((e, bad) <- Seq((0, 9) -> "(0, 9)", (-1, 2) -> "(-1, 2)", (7, 7) -> "(7, 7)")) {
      val df = spark.createDataFrame(Seq((0, 1), e)).toDF("src", "dst")
      val ex = intercept[Exception](SparkGraph.fromEdgeList(spark, df, 5).m)
      assert(ex.getMessage.contains(s"edge $bad has an endpoint outside [0, 5)"), ex.getMessage)
    }
    val path = spark.range(100).select(col("id") as "src", col("id") + 1 as "dst")
    val h = SparkGraph.fromEdgeList(spark, path, 100)
    val ex = intercept[Exception](h.m)
    assert(ex.getMessage.contains("edge (99, 100) has an endpoint outside [0, 100)"), ex.getMessage)
    // 2^32 + 1 narrowed to an Int would be vertex 1; it is checked as a long.
    val wide = spark.createDataFrame(Seq((0L, 1L), (4294967297L, 2L))).toDF("src", "dst")
    val wex = intercept[Exception](SparkGraph.fromEdgeList(spark, wide, 5).m)
    assert(wex.getMessage.contains("edge (4294967297, 2) has an endpoint outside [0, 5)"), wex.getMessage)
  }

  test("a null endpoint is rejected") {
    import spark.implicits._
    val df = Seq((0, Option(1)), (2, None)).toDF("src", "dst")
    val ex = intercept[Exception](SparkGraph.fromEdgeList(spark, df, 5).m)
    assert(ex.getMessage.contains("edge (2, null) has an endpoint outside [0, 5)"), ex.getMessage)
  }

  test("toLocal is byte-identical to fromEdges over the raw input") {
    import spark.implicits._
    val graphs = Seq(
      "R-MAT 9x8" -> GraphGen.rmat(spark, 9, 8),
      "planted cliques" -> GraphGen.plantedCliques(spark, 300, 600, 5, Seq(6, 9)),
      "grid 12x17" -> GraphGen.grid(spark, 12, 17),
      "ER with trailing isolated vertices" ->
        SparkGraph.fromEdgeList(spark, GraphGen.er(spark, 80, 300, seed = 3).edges, 100),
      "edgeless" -> SparkGraph.fromEdgeList(spark, Seq.empty[(Int, Int)].toDF("src", "dst"), 7),
      "n = 1" -> SparkGraph.fromEdgeList(spark, Seq((0, 0)).toDF("src", "dst"), 1),
    )
    for ((name, h) <- graphs) {
      val l = h.toLocal
      val raw = h.edges.select(col("src").cast("int"), col("dst").cast("int")).as[(Int, Int)].collect()
      val ref = LocalGraph.fromEdges(h.n, raw.toSeq)
      assert(l.offsets.sameElements(ref.offsets), name)
      assert(l.adj.sameElements(ref.adj), name)
    }
  }

  test("toLocal canonicalises one-way, duplicate and looped input") {
    import spark.implicits._
    val raw = SparkGraph(spark, Seq((0, 1), (1, 2), (2, 1), (1, 2), (2, 2), (3, 3)).toDF("src", "dst"), 4)
    val l = raw.toLocal
    assert(l.offsets.sameElements(Array(0, 1, 3, 4, 4)), l.offsets.mkString(","))
    assert(l.adj.sameElements(Array(1, 0, 2, 1)), l.adj.mkString(","))
    assert(l.validate() eq l)
    val outside = SparkGraph(spark, Seq((0, 1), (1, 0), (3, 0)).toDF("src", "dst"), 3)
    for (_ <- 1 to 2) {
      val ex = intercept[Exception](outside.toLocal)
      assert(ex.getMessage.contains("edge (3, 0) has an endpoint outside [0, 3)"), ex.getMessage)
    }
  }

  /** The ids of the Spark jobs `body` submits, under a job group of its own. */
  private def jobs(group: String)(body: => Any): Seq[Int] = {
    val sc = spark.sparkContext
    sc.setJobGroup(s"SparkGraphSpec: $group", group)
    try body finally sc.clearJobGroup()
    ListenerBus.drain(sc)
    sc.statusTracker.getJobIdsForGroup(s"SparkGraphSpec: $group").toSeq
  }

  test("a graph's first toLocal runs one Spark job of one stage: no shuffle") {
    val graphs: Seq[(String, () => SparkGraph)] = Seq(
      "R-MAT 8x8" -> (() => GraphGen.rmat(spark, 8, 8)),
      "planted cliques" -> (() => GraphGen.plantedCliques(spark, 300, 600, 5, Seq(6, 9))),
      "lifted K_6" -> (() => GraphGen.complete(spark, 6)))
    for ((name, make) <- graphs) {
      // Drawn on the driver: neither the graph nor its CSR submits a job.
      assert(jobs(s"draw $name")(make().toLocal).isEmpty, name)
      val drawn = make()
      val h = SparkGraph(spark, drawn.edges, drawn.n)
      val ids = jobs(s"build $name")(h.toLocal)
      assert(ids.size == 1, name)
      assert(spark.sparkContext.statusTracker.getJobInfo(ids.head).get.stageIds.length == 1, name)
      assert(h.toLocal.offsets.sameElements(drawn.toLocal.offsets) && h.toLocal.adj.sameElements(drawn.toLocal.adj), name)
    }
  }

  test("toLocal is collected once and then held: later uses submit no collect job") {
    val h = SparkGraph(spark, GraphGen.rmat(spark, 8, 8).edges, 256)
    assert(jobs("first toLocal")(h.toLocal).nonEmpty)
    assert(jobs("second toLocal")(h.toLocal).isEmpty)
    assert(h.toLocal eq h.toLocal)
    val rank = Reorder.rank(h.toLocal, Reorder.DegOrder)
    assert(jobs("k-clique count")(KClique.count(h, 4, rank)).size == 1)
  }
}
