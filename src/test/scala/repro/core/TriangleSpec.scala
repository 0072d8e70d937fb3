package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.{GraphGen, LocalGraph, SparkGraph}

class TriangleSpec extends SparkSpec {

  private def localTriangles(g: LocalGraph): Long = {
    var t = 0L
    for ((u, v) <- g.edgeList; w <- g.neighbors(u) if w > v && g.hasEdge(v, w)) t += 1
    t
  }

  test("closed forms: K_n has C(n,3) triangles") {
    for (n <- 3 to 8) {
      val g = GraphGen.complete(spark, n)
      assert(TriangleCount.count(g) == n.toLong * (n - 1) * (n - 2) / 6)
    }
  }

  test("triangle-free graphs: cycles (n>3), grids, stars") {
    assert(TriangleCount.count(SparkGraph.fromLocal(spark, LocalGraph.cycle(8))) == 0)
    assert(TriangleCount.count(GraphGen.grid(spark, 5, 6)) == 0)
    assert(TriangleCount.count(SparkGraph.fromLocal(spark, LocalGraph.star(9))) == 0)
  }

  for (seed <- 1 to 4) {
    test(s"count matches local reference (ER seed=$seed)") {
      val local = GraphGen.erLocal(50, 0.2, seed)
      val g = SparkGraph.fromLocal(spark, local)
      assert(TriangleCount.count(g) == localTriangles(local))
    }
  }

  test("count matches DuckDB oracle") {
    import spark.implicits._
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(40, 0.25, 5))
    val sparkDf = Seq(TriangleCount.count(g)).toDF("t")
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT COUNT(*) // 6 AS t
        |FROM edges e1
        |JOIN edges e2 ON e1.dst = e2.src AND e1.src <> e2.dst
        |JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst""".stripMargin,
      g)
  }

  test("perVertex matches DuckDB oracle") {
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(35, 0.3, 6))
    Oracle.assertEquivalent(
      TriangleCount.perVertex(g),
      """SELECT CAST(e1.src AS INT) AS v, COUNT(*) // 2 AS triangles
        |FROM edges e1
        |JOIN edges e2 ON e1.dst = e2.src AND e1.src <> e2.dst
        |JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
        |GROUP BY e1.src""".stripMargin,
      g)
  }

  test("perVertex sums to 3T") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(45, 0.2, 7))
    val t = TriangleCount.count(g)
    val sumPerV = TriangleCount.perVertex(g).agg(sum($"triangles")).as[Long].head()
    assert(sumPerV == 3 * t)
  }

  test("perVertex on a single triangle plus tail") {
    import spark.implicits._
    val local = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    val g = SparkGraph.fromLocal(spark, local)
    val m = TriangleCount.perVertex(g).as[(Int, Long)].collect().toMap
    assert(m == Map(0 -> 1L, 1 -> 1L, 2 -> 1L))
  }

  test("k-clique count at k=3 equals triangle count") {
    val local = GraphGen.erLocal(40, 0.25, 8)
    val g = SparkGraph.fromLocal(spark, local)
    val rank = Array.range(0, local.n)
    assert(KClique.count(g, 3, rank) == TriangleCount.count(g))
  }
}
