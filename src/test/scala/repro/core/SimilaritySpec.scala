package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.{GraphGen, LocalGraph, SparkGraph}

class SimilaritySpec extends SparkSpec {

  private lazy val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(40, 0.2, 41))

  private val cnSql =
    """SELECT CAST(e1.src AS INT) AS u, CAST(e2.src AS INT) AS v, COUNT(*) AS cn
      |FROM edges e1 JOIN edges e2
      |  ON e1.dst = e2.dst AND CAST(e1.src AS INT) < CAST(e2.src AS INT)
      |GROUP BY e1.src, e2.src""".stripMargin

  private val degSql =
    "SELECT CAST(src AS INT) AS v, COUNT(*) AS d FROM edges GROUP BY src"

  test("common-neighbor stats match DuckDB oracle") {
    import org.apache.spark.sql.functions._
    Oracle.assertEquivalent(
      Similarity.commonNeighborStats(g).select(col("u"), col("v"), col("cn")),
      cnSql, g)
  }

  test("Jaccard matches DuckDB oracle") {
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.Jaccard),
      s"""WITH cn AS ($cnSql), deg AS ($degSql)
         |SELECT cn.u, cn.v,
         |       CAST(cn.cn AS DOUBLE) / (d1.d + d2.d - cn.cn) AS score
         |FROM cn JOIN deg d1 ON d1.v = cn.u JOIN deg d2 ON d2.v = cn.v""".stripMargin,
      g)
  }

  test("Overlap matches DuckDB oracle") {
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.Overlap),
      s"""WITH cn AS ($cnSql), deg AS ($degSql)
         |SELECT cn.u, cn.v,
         |       CAST(cn.cn AS DOUBLE) / LEAST(d1.d, d2.d) AS score
         |FROM cn JOIN deg d1 ON d1.v = cn.u JOIN deg d2 ON d2.v = cn.v""".stripMargin,
      g)
  }

  test("CommonNeighbors / TotalNeighbors / PreferentialAttachment match oracle") {
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.CommonNeighbors),
      s"""WITH cn AS ($cnSql)
         |SELECT u, v, CAST(cn AS DOUBLE) AS score FROM cn""".stripMargin,
      g)
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.TotalNeighbors),
      s"""WITH cn AS ($cnSql), deg AS ($degSql)
         |SELECT cn.u, cn.v, CAST(d1.d + d2.d - cn.cn AS DOUBLE) AS score
         |FROM cn JOIN deg d1 ON d1.v = cn.u JOIN deg d2 ON d2.v = cn.v""".stripMargin,
      g)
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.PreferentialAttachment),
      s"""WITH cn AS ($cnSql), deg AS ($degSql)
         |SELECT cn.u, cn.v, CAST(d1.d * d2.d AS DOUBLE) AS score
         |FROM cn JOIN deg d1 ON d1.v = cn.u JOIN deg d2 ON d2.v = cn.v""".stripMargin,
      g)
  }

  test("AdamicAdar / ResourceAllocation match oracle") {
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.AdamicAdar),
      s"""WITH deg AS ($degSql)
         |SELECT CAST(e1.src AS INT) AS u, CAST(e2.src AS INT) AS v,
         |       SUM(1.0 / LN(dw.d)) AS score
         |FROM edges e1 JOIN edges e2
         |  ON e1.dst = e2.dst AND CAST(e1.src AS INT) < CAST(e2.src AS INT)
         |JOIN deg dw ON dw.v = CAST(e1.dst AS INT)
         |GROUP BY e1.src, e2.src""".stripMargin,
      g)
    Oracle.assertEquivalent(
      Similarity.scores(g, Similarity.ResourceAllocation),
      s"""WITH deg AS ($degSql)
         |SELECT CAST(e1.src AS INT) AS u, CAST(e2.src AS INT) AS v,
         |       SUM(1.0 / dw.d) AS score
         |FROM edges e1 JOIN edges e2
         |  ON e1.dst = e2.dst AND CAST(e1.src AS INT) < CAST(e2.src AS INT)
         |JOIN deg dw ON dw.v = CAST(e1.dst AS INT)
         |GROUP BY e1.src, e2.src""".stripMargin,
      g)
  }

  test("closed form: leaves of a star all have Jaccard 1 with each other") {
    import spark.implicits._
    val star = SparkGraph.fromLocal(spark, LocalGraph.star(5))
    val s = Similarity.scores(star, Similarity.Jaccard).as[(Int, Int, Double)].collect()
    // all leaf pairs (1..4 choose 2) = 6 pairs, each with N={0} on both sides
    assert(s.length == 6)
    assert(s.forall(_._3 == 1.0))
  }

  test("edgeScores covers exactly the edges") {
    import spark.implicits._
    val es = Similarity.edgeScores(g, Similarity.CommonNeighbors)
      .as[(Int, Int, Double)].collect()
    assert(es.length == g.m)
    val local = g.toLocal
    es.foreach { case (u, v, score) =>
      assert(local.hasEdge(u, v))
      val want = local.neighbors(u).toSet.intersect(local.neighbors(v).toSet).size
      assert(score == want.toDouble)
    }
  }

  test("edgeScores is 0.0 on an edge without common neighbours, under every measure") {
    import spark.implicits._
    // Triangle 0-1-2 plus the pendant edge 2-3, which closes no wedge.
    val h = SparkGraph.fromLocal(spark, LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (0, 2), (2, 3))))
    for (m <- Similarity.allMeasures) {
      val es = Similarity.edgeScores(h, m).as[(Int, Int, Double)].collect()
        .map { case (u, v, s) => (u, v) -> s }.toMap
      assert(es.keySet == Set((0, 1), (0, 2), (1, 2), (2, 3)), m.name)
      assert(es((2, 3)) == 0.0, m.name)
      assert(Seq((0, 1), (0, 2), (1, 2)).forall(es(_) > 0.0), m.name)
    }
  }

  test("scores are symmetric-safe: u < v in every row") {
    import spark.implicits._
    val s = Similarity.scores(g, Similarity.Jaccard).as[(Int, Int, Double)].collect()
    assert(s.forall { case (u, v, _) => u < v })
    assert(s.map(r => (r._1, r._2)).distinct.length == s.length)
  }
}
