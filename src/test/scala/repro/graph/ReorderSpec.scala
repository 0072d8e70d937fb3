package repro.graph

import repro.SparkSpec
import repro.core.KCore

class ReorderSpec extends SparkSpec {

  private def isPermutation(rank: Array[Int]): Boolean =
    rank.sorted.sameElements(Array.range(0, rank.length))

  test("degeneracyLocal: degeneracy of known graphs") {
    assert(Reorder.degeneracyLocal(LocalGraph.complete(6))._3 == 5)
    assert(Reorder.degeneracyLocal(LocalGraph.cycle(8))._3 == 2)
    assert(Reorder.degeneracyLocal(LocalGraph.path(8))._3 == 1)
    assert(Reorder.degeneracyLocal(LocalGraph.star(8))._3 == 1)
    assert(Reorder.degeneracyLocal(GraphGen.grid(spark, 5, 5).toLocal)._3 == 2)
  }

  test("degeneracyLocal: every vertex has ≤ d later-ordered neighbors") {
    for (seed <- 1 to 5) {
      val g = GraphGen.erLocal(80, 0.12, seed)
      val (rank, _, d) = Reorder.degeneracyLocal(g)
      assert(isPermutation(rank))
      assert(Reorder.maxLaterDegree(g, rank) <= d)
    }
  }

  test("degeneracyLocal: coreness matches the max-k membership definition") {
    val g = GraphGen.erLocal(50, 0.2, 3)
    val (_, coreness, d) = Reorder.degeneracyLocal(g)
    assert(coreness.max == d)
    // every vertex of coreness >= k has >= k neighbors of coreness >= k
    for (k <- 1 to d) {
      val members = (0 until g.n).filter(coreness(_) >= k).toSet
      members.foreach { v =>
        assert(g.neighbors(v).count(members.contains) >= k)
      }
    }
  }

  test("DEG ranks ascending by degree") {
    val rank = Reorder.rank(LocalGraph.star(6), Reorder.DegOrder)
    assert(isPermutation(rank))
    assert(rank(0) == 5) // hub has the largest degree ⇒ last
  }

  test("DEG breaks degree ties by vertex ID: on a cycle it is the identity") {
    assert(Reorder.rank(LocalGraph.cycle(7), Reorder.DegOrder).toSeq == (0 until 7))
  }

  test("ID is the identity") {
    assert(Reorder.rank(LocalGraph.cycle(5), Reorder.IdOrder).toSeq == (0 until 5))
  }

  test("adg on a SparkGraph gives the CSR peel's rank and round count") {
    val local = GraphGen.erLocal(120, 0.08, 5)
    val g = SparkGraph.fromLocal(spark, local)
    for (eps <- Seq(0.5, 0.1, 0.01)) {
      val res = Reorder.adg(g, eps)
      val (rank, rounds) = Reorder.peel(g.toLocal, Reorder.AdgOrder(eps))
      assert(Reorder.rankArray(res.order, 120).toSeq == rank.toSeq, s"ε=$eps")
      assert(Reorder.rank(g.toLocal, Reorder.AdgOrder(eps)).toSeq == rank.toSeq, s"ε=$eps")
      assert(res.iterations == rounds, s"ε=$eps")
    }
  }

  for (eps <- Seq(0.5, 0.1, 0.01)) {
    test(s"ADG(ε=$eps) is a permutation honoring the (2+ε)·d guarantee") {
      val local = GraphGen.erLocal(120, 0.08, 5)
      val rank = Reorder.rank(local, Reorder.AdgOrder(eps))
      assert(isPermutation(rank))
      val d = KCore.degeneracy(local)
      assert(Reorder.maxLaterDegree(local, rank) <= math.ceil((2 + eps) * d).toInt + 1,
        s"ADG bound violated: later-deg ${Reorder.maxLaterDegree(local, rank)} vs d=$d")
    }
  }

  test("DGR is an exact degeneracy order (≤ d later neighbors)") {
    for (seed <- 1 to 3) {
      val local = GraphGen.erLocal(80, 0.1, seed + 200)
      val rank = Reorder.rank(local, Reorder.DgrOrder)
      assert(isPermutation(rank))
      val d = KCore.degeneracy(local)
      assert(Reorder.maxLaterDegree(local, rank) <= d,
        s"later-deg ${Reorder.maxLaterDegree(local, rank)} vs d=$d")
    }
  }

  test("DGR peels a grid layer by layer (many rounds — the O(n) point)") {
    val g = GraphGen.grid(spark, 12, 12).toLocal
    val (_, dgrRounds) = Reorder.peel(g, Reorder.DgrOrder)
    val (_, adgRounds) = Reorder.peel(g, Reorder.AdgOrder(0.1))
    assert(dgrRounds > adgRounds,
      s"DGR rounds $dgrRounds should exceed ADG rounds $adgRounds on grids")
  }

  test("ADG finishes in O(log n)-ish batches") {
    val g = GraphGen.er(spark, 500, 2500, seed = 6).toLocal
    val (rank, rounds) = Reorder.peel(g, Reorder.AdgOrder(0.1))
    assert(rounds <= 40, s"took $rounds batches")
    assert(isPermutation(rank))
  }

  test("ADG on a graph with isolated vertices still ranks everyone") {
    val df = spark.createDataFrame(Seq((0, 1), (1, 2))).toDF("src", "dst")
    val g = SparkGraph.fromEdgeList(spark, df, 6)
    val rank = Reorder.rank(g.toLocal, Reorder.AdgOrder(0.1))
    assert(isPermutation(rank))
  }

  test("ADG on a clique assigns everything in one batch") {
    val (_, rounds) = Reorder.peel(LocalGraph.complete(8), Reorder.AdgOrder(0.1))
    assert(rounds == 1) // all degrees equal the average
  }

  test("ADG rejects ε < 0, which would peel nothing on a regular graph") {
    intercept[IllegalArgumentException](Reorder.AdgOrder(-0.5))
  }

  test("byTriangleCount puts triangle-rich vertices first") {
    val local = LocalGraph.fromEdges(6,
      Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4))) // triangle 0-1-2, tail 3-4
    val g = SparkGraph.fromLocal(spark, local)
    val tri = repro.core.TriangleCount.perVertexLocal(spark, local)
    val rank = Reorder.rankArray(Reorder.byTriangleCount(g, tri), 6)
    assert(isPermutation(rank))
    assert(Seq(rank(0), rank(1), rank(2)).max < Seq(rank(3), rank(4), rank(5)).min)
  }

  test("maxLaterDegree of identity order on a path is 1") {
    val g = LocalGraph.path(10)
    assert(Reorder.maxLaterDegree(g, Array.range(0, 10)) == 1)
  }
}
