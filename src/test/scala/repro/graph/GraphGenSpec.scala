package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}

class GraphGenSpec extends SparkSpec {

  /** This run's session, whose `spark.range` splits into the default
    * parallelism, and sessions on the same SparkContext pinned at 1, 3, 4
    * and 8 slices.
    */
  private lazy val sessions: Seq[(String, SparkSession)] =
    ("default slices" -> spark) +: Seq(1, 3, 4, 8).map { k =>
      val s = spark.newSession()
      s.conf.set("spark.sql.leafNodeDefaultParallelism", k.toString)
      s"$k slices" -> s
    }

  /** The rows of each partition, as longs. */
  private def slices(rows: DataFrame): Seq[Seq[(Long, Long)]] =
    rows.select(col("src").cast("long"), col("dst").cast("long")).rdd.glom().collect()
      .map(_.map(r => (r.getLong(0), r.getLong(1))).toSeq).toSeq

  /** In every session, for every case: the graph's raw rows, drawn again in
    * Spark tasks, equal the Catalyst query's rows slice by slice, and its
    * CSR, built on the driver, equals the CSR of the query's rows
    * (`toLocal` of a DataFrame equals `fromEdges` of its rows, SparkGraphSpec).
    */
  private def matchesCatalyst(cases: Seq[(String, SparkSession => (SparkGraph, DataFrame))]): Unit =
    for ((session, s) <- sessions; (name, make) <- cases) {
      val (g, query) = make(s)
      val what = s"$name, $session"
      val want = slices(query)
      assert(slices(g.edges) == want, what)
      val ref = LocalGraph.fromEdges(g.n, want.flatten.map { case (u, v) => (u.toInt, v.toInt) })
      assert(g.toLocal.offsets.sameElements(ref.offsets), what)
      assert(g.toLocal.adj.sameElements(ref.adj), what)
    }

  test("er draws its Catalyst query's rows and CSR: 3 seeds, 779 rows, 1-8 slices") {
    matchesCatalyst(Seq(5L, 1005L, 2005L).map { seed =>
      s"er seed $seed" -> ((s: SparkSession) => (GraphGen.er(s, 100, 779, seed), CatalystGen.er(s, 100, 779, seed)))
    })
  }

  test("rmat draws its Catalyst query's rows and CSR: 4 seeds, 640 rows, 1-8 slices") {
    matchesCatalyst(Seq(11L, 1011L, 2011L, 5L).map { seed =>
      s"rmat seed $seed" -> ((s: SparkSession) => (GraphGen.rmat(s, 7, 5, seed = seed), CatalystGen.rmat(s, 7, 5, seed = seed)))
    } :+ ("rmat (0.45, 0.15, 0.15)" -> ((s: SparkSession) =>
      (GraphGen.rmat(s, 6, 7, 0.45, 0.15, 0.15, 9), CatalystGen.rmat(s, 6, 7, 0.45, 0.15, 0.15, 9)))))
  }

  test("ringLattice draws its Catalyst query's rows and CSR: 3 seeds, rewired, 1-8 slices") {
    matchesCatalyst(Seq(13L, 1013L, 2013L).map { seed =>
      s"ringLattice seed $seed" -> ((s: SparkSession) =>
        (GraphGen.ringLattice(s, 77, 3, 0.3, seed), CatalystGen.ringLattice(s, 77, 3, 0.3, seed)))
    } :+ ("ringLattice unwired" -> ((s: SparkSession) =>
      (GraphGen.ringLattice(s, 50, 4), CatalystGen.ringLattice(s, 50, 4, 0.0, 13)))))
  }

  test("plantedCliques draws its Catalyst query's rows and CSR: 3 seeds, 1-8 slices") {
    matchesCatalyst(Seq(17L, 1017L, 2017L).map { seed =>
      s"plantedCliques seed $seed" -> ((s: SparkSession) =>
        (GraphGen.plantedCliques(s, 300, 779, 5, Seq(6, 9, 2), seed),
         CatalystGen.plantedCliques(s, 300, 779, 5, Seq(6, 9, 2), seed)))
    })
  }

  test("grid draws its Catalyst query's rows and CSR: 1-8 slices") {
    matchesCatalyst(Seq((7, 11), (1, 5), (4, 1)).map { case (r, c) =>
      s"grid $r x $c" -> ((s: SparkSession) => (GraphGen.grid(s, r, c), CatalystGen.grid(s, r, c)))
    })
  }

  test("grid has the closed-form edge count and no triangles") {
    val g = GraphGen.grid(spark, 8, 11)
    assert(g.n == 88)
    assert(g.m == 8 * 10 + 11 * 7)
    assert(repro.core.TriangleCount.count(g) == 0)
    assert(g.toLocal.maxDegree == 4)
  }

  test("ring lattice without rewiring is 2k-regular with nk edges") {
    val n = 60; val k = 3
    val g = GraphGen.ringLattice(spark, n, k)
    assert(g.m == n.toLong * k)
    val l = g.toLocal
    (0 until n).foreach(v => assert(l.degree(v) == 2 * k))
  }

  test("ring lattice has the closed-form triangle count n·k(k-1)/2 ... for k<n/3") {
    // each vertex v and offsets 0<i<j<=k with j-i<=k closes a triangle:
    // per vertex k(k-1)/2 triangles counted at the lowest endpoint.
    val n = 48; val k = 4
    val g = GraphGen.ringLattice(spark, n, k)
    assert(repro.core.TriangleCount.count(g) == n.toLong * k * (k - 1) / 2)
  }

  test("er generates at most m edges and is deterministic in seed") {
    val g1 = GraphGen.er(spark, 100, 300, seed = 5)
    val g2 = GraphGen.er(spark, 100, 300, seed = 5)
    assert(g1.m <= 300 && g1.m > 100)
    assert(g1.m == g2.m)
    import spark.implicits._
    assert(g1.canonicalEdges.as[(Int, Int)].collect().toSet ==
           g2.canonicalEdges.as[(Int, Int)].collect().toSet)
  }

  test("rmat has a skewed degree distribution") {
    val g = GraphGen.rmat(spark, scale = 10, edgeFactor = 8)
    val l = g.toLocal
    assert(l.n == 1024)
    val degs = (0 until l.n).map(l.degree)
    val avg = degs.sum.toDouble / degs.count(_ > 0)
    assert(degs.max > 4 * avg, s"max=${degs.max} avg=$avg — expected power-law skew")
  }

  test("rmat is deterministic in seed and respects vertex bound") {
    val a = GraphGen.rmat(spark, 8, 4, seed = 3)
    val b = GraphGen.rmat(spark, 8, 4, seed = 3)
    assert(a.m == b.m)
    val l = a.toLocal
    assert(l.n == 256)
  }

  test("plantedCliques really contains its cliques") {
    val g = GraphGen.plantedCliques(spark, n = 200, bgEdges = 100,
                                    cliques = 5, sizes = Seq(4, 6))
    val l = g.toLocal
    // clique 0: vertices 0..3 (size 4); clique 1: vertices 6..11 (size 6)
    for (a <- 0 until 4; b <- a + 1 until 4) assert(l.hasEdge(a, b))
    for (a <- 6 to 11; b <- a + 1 to 11) assert(l.hasEdge(a, b))
  }

  test("plantedCliques gives a large triangle-count skew") {
    val g = GraphGen.plantedCliques(spark, n = 400, bgEdges = 300,
                                    cliques = 4, sizes = Seq(12))
    val s = GraphStats.compute("pc", g)
    assert(s.maxTriPerVertex >= 55) // inside a K12 every vertex sees C(11,2)=55
    assert(s.maxTriPerVertex > 10 * math.max(1.0, s.triPerVertex))
  }

  test("generated degrees agree with DuckDB oracle (rmat)") {
    val g = GraphGen.rmat(spark, 7, 4, seed = 19)
    val local = g.toLocal
    Oracle.assertEquivalent(
      g.perVertex("degree", Array.tabulate(g.n)(local.degree)).where(col("degree") > 0),
      "SELECT CAST(src AS INT) AS v, COUNT(*) AS degree FROM edges GROUP BY src",
      g)
  }

  test("erLocal is deterministic and respects p=0 / p=1") {
    assert(GraphGen.erLocal(10, 0.0, 1).m == 0)
    assert(GraphGen.erLocal(10, 1.0, 1).m == 45)
    val a = GraphGen.erLocal(30, 0.2, 7)
    val b = GraphGen.erLocal(30, 0.2, 7)
    assert(a.edgeList.toSeq == b.edgeList.toSeq)
  }

  test("complete dataflow graph matches LocalGraph.complete") {
    val g = GraphGen.complete(spark, 7)
    assert(g.m == 21)
    assert(g.toLocal.edgeList.toSeq.sorted == LocalGraph.complete(7).edgeList.toSeq.sorted)
  }
}
