package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.{GraphGen, SparkGraph}

class LinkPredictionSpec extends SparkSpec {

  test("split partitions the edge set exactly") {
    val g = GraphGen.er(spark, 60, 300, seed = 51)
    val (sparse, rem) = LinkPrediction.split(g.toLocal, 0.2, seed = 1)
    val all = g.toLocal.edgeList.toSet
    val kept = sparse.edgeList.toSet
    assert(kept.intersect(rem).isEmpty)
    assert(kept.union(rem) == all)
  }

  test("split depends on the edges and the seed, not on the partitioning") {
    val g = GraphGen.er(spark, 60, 300, seed = 51)
    val reshuffled = SparkGraph(spark, g.edges.repartition(7), g.n)
    def removed(h: SparkGraph) = LinkPrediction.split(h.toLocal, 0.2, seed = 1)._2
    val r = removed(g)
    assert(r.nonEmpty)
    assert(removed(reshuffled) == r)
  }

  /** The edges of `g` that the split's former Catalyst query removed: the
    * CSR's edges lifted to `int` (src, dst) rows, dropped where the top 53
    * bits of `xxhash64(src, dst, seed)` fall below `frac`. The reference
    * the split's draw on the driver is checked against.
    */
  private def catalystRemoved(g: SparkGraph, frac: Double, seed: Long): Set[(Int, Int)] = {
    import spark.implicits._
    val draw = shiftrightunsigned(xxhash64($"src", $"dst", lit(seed)), 11).cast("double") / math.pow(2, 53)
    SparkGraph.fromLocal(spark, g.toLocal).edges.where(draw < frac).as[(Int, Int)].collect().toSet
  }

  test("split removes exactly the edges of the Catalyst xxhash64 draw") {
    for ((name, g, seed) <- Seq[(String, SparkGraph, Long)](
           ("ER(60, 300)", GraphGen.er(spark, 60, 300, seed = 51), 1L),
           ("ER(80, 500)", GraphGen.er(spark, 80, 500, seed = 55), 5L),
           ("planted cliques", GraphGen.plantedCliques(spark, n = 150, bgEdges = 120,
                                                       cliques = 6, sizes = Seq(10)), 4L));
         frac <- Seq(0.1, 0.0, 1.0)) {
      val want = catalystRemoved(g, frac, seed)
      assert(LinkPrediction.split(g.toLocal, frac, seed)._2 == want, s"$name, frac $frac")
      if (frac == 0.1) assert(want.nonEmpty && want.size < g.m, name)
      if (frac == 1.0) assert(want.size == g.m, name)
      if (frac == 0.0) assert(want.isEmpty, name)
    }
  }

  test("run submits one Spark job on a graph whose CSR is held") {
    val g = GraphGen.er(spark, 80, 500, seed = 55)
    g.toLocal
    assert(jobs("link prediction")(LinkPrediction.run(g, Similarity.Jaccard, frac = 0.1, seed = 5)).size == 1)
  }

  test("frac=0 removes nothing; effectiveness well-defined") {
    val g = GraphGen.er(spark, 40, 150, seed = 52)
    val r = LinkPrediction.run(g, frac = 0.0)
    assert(r.removed == 0 && r.hits == 0 && r.effectiveness == 0.0)
  }

  test("on K_n every removed edge is recovered (eff = 1)") {
    // In K12 minus the removed set, candidate non-edges are exactly the
    // removed edges, so prediction must recover all of them.
    val g = GraphGen.complete(spark, 12)
    val r = LinkPrediction.run(g, Similarity.CommonNeighbors, frac = 0.15, seed = 3)
    assert(r.removed > 0)
    assert(r.hits == r.removed)
    assert(r.effectiveness == 1.0)
  }

  test("planted-clique graph: prediction beats random guessing") {
    val g = GraphGen.plantedCliques(spark, n = 150, bgEdges = 120,
                                    cliques = 6, sizes = Seq(10))
    val r = LinkPrediction.run(g, Similarity.Jaccard, frac = 0.1, seed = 4)
    assert(r.removed > 0)
    // Random guessing over all non-adjacent pairs would hit ≈ removed / C(n,2)
    // ≈ 0.5%; clique-structured similarity should far exceed that.
    assert(r.effectiveness > 0.2, s"eff=${r.effectiveness}")
  }

  /** §6.7 by brute force on the driver: score every non-adjacent pair of the
    * sparsified graph with at least one common neighbour, sort by (score
    * desc, u, v), and count the removed edges among the first |E_rndm|.
    */
  private def reference(g: SparkGraph, m: Similarity.Measure, frac: Double, seed: Long): LinkPrediction.Result = {
    val (local, removed) = LinkPrediction.split(g.toLocal, frac, seed)
    val cand = for {
      u <- 0 until local.n; v <- u + 1 until local.n if !local.hasEdge(u, v)
      (cn, s) = BruteSimilarity(local, m, u, v) if cn > 0
    } yield (s, u, v)
    val predicted = cand.sortWith { case ((s1, u1, v1), (s2, u2, v2)) =>
      s1 > s2 || (s1 == s2 && (u1 < u2 || (u1 == u2 && v1 < v2)))
    }.take(removed.size)
    LinkPrediction.Result(removed.size, predicted.count { case (_, u, v) => removed((u, v)) })
  }

  for ((name, build, seed) <- Seq[(String, () => SparkGraph, Long)](
         ("ER(80, 500)", () => GraphGen.er(spark, 80, 500, seed = 55), 5L),
         ("planted cliques", () => GraphGen.plantedCliques(spark, n = 150, bgEdges = 120,
                                                           cliques = 6, sizes = Seq(10)), 4L))) {
    test(s"run equals a brute-force reference for every measure: $name") {
      val g = build()
      for (m <- Similarity.allMeasures)
        assert(LinkPrediction.run(g, m, frac = 0.1, seed = seed) == reference(g, m, 0.1, seed), m.name)
    }
  }

  test("effectiveness bounded in [0, 1] for every measure") {
    val g = GraphGen.er(spark, 80, 500, seed = 55)
    for (m <- Similarity.allMeasures) {
      val r = LinkPrediction.run(g, m, frac = 0.1, seed = 5)
      assert(r.effectiveness >= 0.0 && r.effectiveness <= 1.0, m.name)
    }
  }
}
