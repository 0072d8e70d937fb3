package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, SparkGraph}
import repro.setalg.SetFactory

class KCliqueStarSpec extends SparkSpec {

  private def choose(n: Int, k: Int): Long =
    if (k < 0 || k > n) 0 else (1 to k).foldLeft(1L)((acc, i) => acc * (n - k + i) / i)

  /** (clique, star set) by enumeration: every k-subset that is a clique,
    * with the vertices adjacent to all of its members, when there is one.
    */
  private def bruteForce(g: LocalGraph, k: Int): Set[(List[Int], List[Int])] =
    (0 until g.n).combinations(k)
      .filter(c => c.combinations(2).forall(p => g.hasEdge(p(0), p(1))))
      .map(c => (c.toList, (0 until g.n).filter(s => c.forall(g.hasEdge(_, s))).toList))
      .filter(_._2.nonEmpty).toSet

  test("listLocal and count equal a brute-force reference, every representation") {
    for ((local, seed) <- Seq(GraphGen.erLocal(16, 0.5, 74) -> 1, GraphGen.erLocal(18, 0.45, 75) -> 2)) {
      val g = SparkGraph.fromLocal(spark, local)
      val rank = new scala.util.Random(seed).shuffle((0 until local.n).toList).toArray
      for (k <- 2 to 4) {
        val want = bruteForce(local, k)
        assert(want.nonEmpty, s"k=$k")
        val wantCount = KCliqueStar.Result(want.size.toLong, want.toSeq.map(_._2.size.toLong).sum)
        for (f <- SetFactory.all) {
          val got = KCliqueStar.listLocal(local, k, rank, f).map { case (c, st) => (c.toList, st.toList) }
          assert(got.toSet == want && got.size == want.size, s"k=$k ${f.name}")
          assert(KCliqueStar.count(g, k, rank, f) == wantCount, s"k=$k ${f.name}")
        }
      }
    }
  }

  test("K_n: every k-clique is a star with the other n-k vertices") {
    for (n <- 4 to 6; k <- 2 until n) {
      val g = GraphGen.complete(spark, n)
      val r = KCliqueStar.count(g, k, Array.range(0, n))
      assert(r.stars == choose(n, k), s"n=$n k=$k")
      assert(r.starVertices == choose(n, k) * (n - k), s"n=$n k=$k")
    }
  }

  test("triangle-free graph has no 2-clique-stars beyond wedges") {
    // For an edge (u,v), star set = common neighbors ⇒ zero in triangle-free graphs.
    val g = GraphGen.grid(spark, 4, 5)
    val r = KCliqueStar.count(g, 2, Array.range(0, 20))
    assert(r.stars == 0)
  }

  test("hand-built 3-clique-star: triangle plus one universal vertex") {
    val local = LocalGraph.fromEdges(5,
      Seq((0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2), (4, 0)))
    val g = SparkGraph.fromLocal(spark, local)
    val stars = KCliqueStar.listLocal(local, 3, Array.range(0, 5))
    // 3-cliques: {0,1,2},{0,1,3},{0,2,3},{1,2,3}; each has the 4th as star.
    assert(stars.size == 4)
    assert(stars.toMap.apply(Seq(0, 1, 2)) == Seq(3))
    assert(stars.toMap.apply(Seq(1, 2, 3)) == Seq(0))
    assert(KCliqueStar.count(g, 3, Array.range(0, 5)).stars == 4)
  }

  test("listLocal agrees with the paper's (k+1)-clique derivation") {
    // Every k-clique-star (C, S) with s ∈ S forms a (k+1)-clique C ∪ {s};
    // conversely each (k+1)-clique yields k+1 k-subcliques with ≥1 star vertex.
    val local = GraphGen.erLocal(25, 0.4, 71)
    val k = 3
    val rank = Array.range(0, local.n)
    val stars = KCliqueStar.listLocal(local, k, rank)
    val kPlus1 = KClique.listLocal(local, k + 1, rank).toSet
    stars.foreach { case (c, s) =>
      s.foreach(v => assert(kPlus1.contains((c :+ v).sorted)))
    }
    kPlus1.foreach { c =>
      c.foreach { drop =>
        val sub = c.filterNot(_ == drop)
        assert(stars.exists(_._1 == sub))
      }
    }
  }

  test("count is invariant under the task count, every representation") {
    val local = GraphGen.erLocal(30, 0.35, 73)
    val g = SparkGraph.fromLocal(spark, local)
    val rank = Array.range(0, local.n)
    val ref = KCliqueStar.listLocal(local, 3, rank)
    val want = KCliqueStar.Result(ref.size.toLong, ref.map(_._2.size.toLong).sum)
    assert(want.stars > 0)
    for (f <- SetFactory.all; tasks <- Seq(1, 3, 64))
      assert(KCliqueStar.count(g, 3, rank, f, tasks) == want, s"${f.name} tasks=$tasks")
  }

  test("count is order-invariant") {
    val local = GraphGen.erLocal(30, 0.3, 72)
    val g = SparkGraph.fromLocal(spark, local)
    val (dgr, _, _) = repro.graph.Reorder.degeneracyLocal(local)
    val a = KCliqueStar.count(g, 3, Array.range(0, 30))
    val b = KCliqueStar.count(g, 3, dgr)
    assert(a == b)
  }
}
