package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, SparkGraph}

class LabelPropagationSpec extends SparkSpec {

  private def communities(g: SparkGraph, maxIter: Int = 20): Map[Int, Int] = {
    import spark.implicits._
    LabelPropagation.run(g, maxIter)._1.as[(Int, Int)].collect().toMap
  }

  test("two disjoint cliques form two communities") {
    val edges = (for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)) ++
                (for (a <- 5 until 10; b <- a + 1 until 10) yield (a, b))
    val g = SparkGraph.fromLocal(spark, LocalGraph.fromEdges(10, edges))
    val c = communities(g)
    assert((0 until 5).map(c).toSet.size == 1)
    assert((5 until 10).map(c).toSet.size == 1)
    assert(c(0) != c(9))
  }

  test("single clique converges to one community") {
    val g = GraphGen.complete(spark, 7)
    val c = communities(g)
    assert(c.values.toSet.size == 1)
  }

  test("isolated vertices keep their own community") {
    val df = spark.createDataFrame(Seq((0, 1))).toDF("src", "dst")
    val g = SparkGraph.fromEdgeList(spark, df, 4)
    val c = communities(g)
    assert(c(2) == 2 && c(3) == 3)
  }

  test("every vertex gets exactly one community and iteration terminates") {
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(50, 0.1, 81))
    val c = communities(g, maxIter = 10)
    assert(c.keySet == (0 until 50).toSet)
  }

  test("two cliques with a weak bridge still separate") {
    val edges = (for (a <- 0 until 6; b <- a + 1 until 6) yield (a, b)) ++
                (for (a <- 6 until 12; b <- a + 1 until 12) yield (a, b)) :+ (0, 6)
    val g = SparkGraph.fromLocal(spark, LocalGraph.fromEdges(12, edges))
    val c = communities(g)
    assert((1 until 6).map(c).toSet.size == 1)
    assert((7 until 12).map(c).toSet.size == 1)
    assert(c(1) != c(7))
  }

  test("ties go to the smallest neighbour label") {
    // Path 0-1-2 from labels = IDs: in round 1 vertex 1 sees labels 0 and 2
    // once each and takes 0; in round 2 it sees label 1 twice.
    val g = SparkGraph.fromLocal(spark, LocalGraph.path(3))
    assert(communities(g, maxIter = 1) == Map(0 -> 1, 1 -> 0, 2 -> 1))
    assert(communities(g, maxIter = 2) == Map(0 -> 0, 1 -> 1, 2 -> 0))
  }

  test("maxIter bounds the rounds: a single edge swaps its labels every round") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.path(2))
    assert(communities(g, maxIter = 0) == Map(0 -> 0, 1 -> 1))
    assert(communities(g, maxIter = 1) == Map(0 -> 1, 1 -> 0))
    assert(communities(g, maxIter = 2) == Map(0 -> 0, 1 -> 1))
  }

  test("a single edge never settles, so it reports maxIter rounds") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.path(2))
    for (maxIter <- Seq(0, 1, 7)) assert(LabelPropagation.run(g, maxIter)._2 == maxIter)
  }

  test("the round count includes the round that changes nothing") {
    // K4 from labels = IDs: in round 1 vertex 0 takes 1 and the others take
    // 0 (all tie at one); in round 2 vertex 0 sees three 0s and the others
    // two, so all take 0; round 3 changes nothing.
    assert(LabelPropagation.run(GraphGen.complete(spark, 4))._2 == 3)
    // No edge: round 1 changes nothing.
    assert(LabelPropagation.run(SparkGraph.fromLocal(spark, LocalGraph.fromEdges(3, Seq.empty)))._2 == 1)
  }
}
