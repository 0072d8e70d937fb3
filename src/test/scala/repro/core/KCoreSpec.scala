package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, SparkGraph}

class KCoreSpec extends SparkSpec {

  private def sparkCore(g: SparkGraph, k: Int): Set[Int] = {
    import spark.implicits._
    KCore.kCore(g, k).as[Int].collect().toSet
  }

  test("k-core of K6: whole graph for k ≤ 5, empty above") {
    val g = GraphGen.complete(spark, 6)
    for (k <- 1 to 5) assert(sparkCore(g, k) == (0 until 6).toSet)
    assert(sparkCore(g, 6).isEmpty)
  }

  test("2-core of a cycle with a pendant path drops the path") {
    val local = LocalGraph.fromEdges(7,
      Seq((0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)))
    val g = SparkGraph.fromLocal(spark, local)
    assert(sparkCore(g, 2) == Set(0, 1, 2, 3))
    assert(sparkCore(g, 1) == (0 until 7).toSet)
    assert(sparkCore(g, 3).isEmpty)
  }

  test("0-core is every non-isolated vertex") {
    val df = spark.createDataFrame(Seq((0, 1))).toDF("src", "dst")
    assert(sparkCore(SparkGraph.fromEdgeList(spark, df, 4), 0) == Set(0, 1))
  }

  test("3-core of a 20×20 grid is empty") {
    // Peeling eats the grid from its corners one diagonal per round: about 20 rounds.
    assert(sparkCore(GraphGen.grid(spark, 20, 20), 3).isEmpty)
  }

  test("tree has empty 2-core") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.star(8))
    assert(sparkCore(g, 2).isEmpty)
  }

  for (seed <- 1 to 4) {
    test(s"dataflow k-core equals local coreness filter (ER seed=$seed)") {
      val local = GraphGen.erLocal(70, 0.1, seed)
      val g = SparkGraph.fromLocal(spark, local)
      val (coreness, d) = KCore.corenessLocal(local)
      for (k <- 1 to d + 1) {
        val want = (0 until local.n).filter(coreness(_) >= k).toSet
        assert(sparkCore(g, k) == want, s"k=$k")
      }
    }
  }

  test("peeling-induced subgraph min degree is ≥ k") {
    val local = GraphGen.erLocal(80, 0.12, 9)
    val g = SparkGraph.fromLocal(spark, local)
    val core = sparkCore(g, 3)
    core.foreach { v =>
      assert(local.neighbors(v).count(core.contains) >= 3)
    }
  }

  test("degeneracy equals max coreness on planted-clique graphs") {
    val g = GraphGen.plantedCliques(spark, n = 120, bgEdges = 60,
                                    cliques = 3, sizes = Seq(8)).toLocal
    val (coreness, d) = KCore.corenessLocal(g)
    assert(d == coreness.max)
    assert(d >= 7) // K8 forces degeneracy ≥ 7
  }

  test("kCoreLocal matches spark kCore") {
    val local = GraphGen.erLocal(60, 0.15, 11)
    val g = SparkGraph.fromLocal(spark, local)
    for (k <- Seq(2, 3)) {
      assert(KCore.kCoreLocal(local, k).toSet == sparkCore(g, k))
    }
  }
}
