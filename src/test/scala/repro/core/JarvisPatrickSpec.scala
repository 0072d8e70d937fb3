package repro.core

import repro.SparkSpec
import repro.graph.{ConnectedComponents, GraphGen, LocalGraph, SparkGraph}

class JarvisPatrickSpec extends SparkSpec {

  private def clusters(df: org.apache.spark.sql.DataFrame): Map[Int, Int] = {
    import spark.implicits._
    df.as[(Int, Int)].collect().toMap
  }

  private def components(g: LocalGraph): Map[Int, Int] =
    ConnectedComponents.run(g).zipWithIndex.map(_.swap).toMap

  test("connected components: two disjoint triangles") {
    val cc = components(LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))
    assert(cc(0) == cc(1) && cc(1) == cc(2))
    assert(cc(3) == cc(4) && cc(4) == cc(5))
    assert(cc(0) != cc(3))
  }

  test("connected components: long path collapses to one label") {
    val cc = components(LocalGraph.path(20))
    assert(cc.values.toSet.size == 1)
    assert(cc.values.head == 0)
  }

  test("connected components: isolated vertices keep their own label") {
    val cc = components(LocalGraph.fromEdges(4, Seq((0, 1))))
    assert(cc(0) == cc(1))
    assert(cc(2) == 2 && cc(3) == 3)
  }

  test("JP separates two cliques joined by a bridge") {
    // Two K5s, bridge 4-5: bridge endpoints share 0 neighbors ⇒ pruned.
    val edges = (for (a <- 0 until 5; b <- a + 1 until 5) yield (a, b)) ++
                (for (a <- 5 until 10; b <- a + 1 until 10) yield (a, b)) :+ (4, 5)
    val g = SparkGraph.fromLocal(spark, LocalGraph.fromEdges(10, edges))
    val cl = clusters(JarvisPatrick.cluster(g, knn = 4, minShared = 1))
    assert((0 until 5).map(cl).toSet.size == 1)
    assert((5 until 10).map(cl).toSet.size == 1)
    assert(cl(0) != cl(9))
  }

  test("JP on a clique keeps it together") {
    val g = GraphGen.complete(spark, 6)
    val cl = clusters(JarvisPatrick.cluster(g, knn = 5, minShared = 1))
    assert(cl.values.toSet.size == 1)
  }

  test("JP with an impossible shared threshold shatters everything") {
    val g = GraphGen.complete(spark, 5)
    val cl = clusters(JarvisPatrick.cluster(g, knn = 4, minShared = 100))
    assert(cl.values.toSet.size == 5)
  }

  /** Jarvis-Patrick by brute force on the driver: each vertex's top-knn
    * neighbours by (score desc, ID), the mutual and shared-neighbour tests
    * per edge, and min-ID labels spread over the kept edges to a fixpoint.
    */
  private def reference(g: LocalGraph, knn: Int, minShared: Int, m: Similarity.Measure): Map[Int, Int] = {
    def edge(a: Int, b: Int): (Int, Double) = {
      val (cn, s) = BruteSimilarity(g, m, math.min(a, b), math.max(a, b))
      (cn, if (cn == 0) 0.0 else s)
    }
    val top = Array.tabulate(g.n) { a =>
      g.neighbors(a).sortWith { (b, c) =>
        val sb = edge(a, b)._2; val sc = edge(a, c)._2
        sb > sc || (sb == sc && b < c)
      }.take(knn).toSet
    }
    val kept = g.edgeList.filter { case (u, v) => top(u)(v) && top(v)(u) && edge(u, v)._1 >= minShared }
    val label = Array.range(0, g.n)
    var changed = true
    while (changed) {
      changed = false
      kept.foreach { case (u, v) =>
        val l = math.min(label(u), label(v))
        if (label(u) != l || label(v) != l) { label(u) = l; label(v) = l; changed = true }
      }
    }
    label.zipWithIndex.map(_.swap).toMap
  }

  for ((knn, minShared) <- Seq((3, 1), (5, 2)); m <- Seq(Similarity.CommonNeighbors, Similarity.Jaccard)) {
    test(s"JP equals a brute-force reference: knn=$knn minShared=$minShared ${m.name}") {
      val local = GraphGen.erLocal(40, 0.15, 61)
      val g = SparkGraph.fromLocal(spark, local)
      assert(clusters(JarvisPatrick.cluster(g, knn, minShared, m)) == reference(local, knn, minShared, m))
    }
  }

  test("JP assigns every vertex exactly one cluster") {
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(40, 0.15, 61))
    val cl = clusters(JarvisPatrick.cluster(g, knn = 3, minShared = 1))
    assert(cl.keySet == (0 until 40).toSet)
  }
}
