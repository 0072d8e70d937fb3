package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph, Reorder}
import repro.setalg.SetFactory

/** Kernel-level Bron-Kerbosch correctness: every (ordering × representation ×
  * subgraph-opt) combination must list exactly the brute-force maximal
  * cliques. This is the modularity contract the whole platform rests on.
  */
class BronKerboschSpec extends AnyFunSuite {

  /** All maximal cliques by subset enumeration (n ≤ ~15). */
  private def bruteForce(g: LocalGraph): Set[Set[Int]] = {
    val verts = (0 until g.n).toList
    def isClique(s: List[Int]): Boolean =
      s.combinations(2).forall(p => g.hasEdge(p(0), p(1)))
    val cliques = verts.toSet.subsets().filter(_.nonEmpty)
      .filter(s => isClique(s.toList)).toList
    cliques.filter { c =>
      !cliques.exists(d => d != c && c.subsetOf(d))
    }.toSet
  }

  private def ranks(g: LocalGraph): Seq[(String, Array[Int])] = {
    val (dgr, _, _) = Reorder.degeneracyLocal(g)
    Seq(
      "id"  -> Array.range(0, g.n),
      "deg" -> Array.range(0, g.n).sortBy(v => (g.degree(v), v)).zipWithIndex
                 .sortBy(_._1).map(_._2),
      "dgr" -> dgr,
    )
  }

  private def checkAll(name: String, g: LocalGraph): Unit = {
    val want = bruteForce(g).map(_.toSeq.sorted)
    for ((oname, rank) <- ranks(g); f <- SetFactory.all) {
      test(s"$name: order=$oname sets=${f.name} matches brute force") {
        val got = MaximalCliques.listLocal(g, rank, f).map(_.toSeq).toSet
        assert(got == want)
      }
    }
    val (dgr, _, _) = Reorder.degeneracyLocal(g)
    test(s"$name: subgraph-optimized variant matches brute force") {
      for (f <- SetFactory.all) {
        val got = MaximalCliques.listLocal(g, dgr, f, subgraphOpt = true).map(_.toSeq).toSet
        assert(got == want, f.name)
      }
    }
  }

  checkAll("K5", LocalGraph.complete(5))
  checkAll("C6", LocalGraph.cycle(6))
  checkAll("P5", LocalGraph.path(5))
  checkAll("star7", LocalGraph.star(7))
  checkAll("triangle+pendant", LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (0, 2), (2, 3), (3, 4))))
  checkAll("two disjoint triangles", LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))
  checkAll("ER(10,0.3)", GraphGen.erLocal(10, 0.3, 1))
  checkAll("ER(11,0.5)", GraphGen.erLocal(11, 0.5, 2))
  checkAll("ER(12,0.7)", GraphGen.erLocal(12, 0.7, 3))
  checkAll("ER(12,0.2)", GraphGen.erLocal(12, 0.2, 4))
  checkAll("with isolated vertices", LocalGraph.fromEdges(6, Seq((1, 2), (2, 3), (1, 3))))

  test("K_n has exactly one maximal clique of size n") {
    for (n <- 2 to 8) {
      val g = LocalGraph.complete(n)
      val got = MaximalCliques.listLocal(g, Array.range(0, n), SetFactory.roaring)
      assert(got.size == 1)
      assert(got.head == (0 until n))
    }
  }

  test("C_n (n ≥ 4) has exactly n maximal cliques (the edges)") {
    for (n <- 4 to 9) {
      val g = LocalGraph.cycle(n)
      val got = MaximalCliques.listLocal(g, Array.range(0, n), SetFactory.sorted)
      assert(got.size == n)
      assert(got.forall(_.size == 2))
    }
  }

  test("complete bipartite K33 has 9 maximal cliques (edges)") {
    val g = LocalGraph.fromEdges(6, for (a <- 0 until 3; b <- 3 until 6) yield (a, b))
    val got = MaximalCliques.listLocal(g, Array.range(0, 6), SetFactory.dense)
    assert(got.size == 9)
  }

  test("Moon-Moser graph MM(9) attains 3^3 = 27 maximal cliques") {
    // K_{3x3}: complement of 3 disjoint triangles — every transversal is maximal.
    val groups = Seq(Seq(0, 1, 2), Seq(3, 4, 5), Seq(6, 7, 8))
    val edges = for {
      g1 <- groups; g2 <- groups if g1 != g2
      a <- g1; b <- g2 if a < b
    } yield (a, b)
    val g = LocalGraph.fromEdges(9, edges)
    val got = MaximalCliques.listLocal(g, Array.range(0, 9), SetFactory.roaring)
    assert(got.size == 27)
    assert(got.forall(_.size == 3))
  }

  test("all representations agree on a larger random graph") {
    val g = GraphGen.erLocal(60, 0.15, 9)
    val (dgr, _, _) = Reorder.degeneracyLocal(g)
    val ref = MaximalCliques.listLocal(g, dgr, SetFactory.sorted).toSet
    for (f <- SetFactory.all.drop(1)) {
      assert(MaximalCliques.listLocal(g, dgr, f).toSet == ref)
    }
    for (f <- SetFactory.all)
      assert(MaximalCliques.listLocal(g, dgr, f, subgraphOpt = true).toSet == ref, f.name)
  }

  test("orderings do not change the clique set, only the traversal") {
    val g = GraphGen.erLocal(40, 0.25, 10)
    val sets = ranks(g).map { case (_, r) =>
      MaximalCliques.listLocal(g, r, SetFactory.roaring).toSet
    }
    assert(sets.distinct.size == 1)
  }

  test("isolated vertex is a maximal clique of size 1") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1)))
    val got = MaximalCliques.listLocal(g, Array.range(0, 3), SetFactory.sorted)
    assert(got.toSet == Set(Seq(0, 1), Seq(2)))
    val gotS = MaximalCliques.listLocal(g, Array.range(0, 3), SetFactory.dense, subgraphOpt = true)
    assert(gotS.toSet == Set(Seq(0, 1), Seq(2)))
  }
}
