package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.setalg.SetFactory
import scala.util.Random

class LocalGraphSpec extends AnyFunSuite {

  test("fromEdges symmetrises, dedupes, drops self-loops") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 0), (1, 1), (2, 3), (2, 3)))
    assert(g.n == 4)
    assert(g.m == 2)
    assert(g.neighbors(0).toSeq == Seq(1))
    assert(g.neighbors(1).toSeq == Seq(0))
    assert(g.neighbors(2).toSeq == Seq(3))
    assert(g.degree(1) == 1)
  }

  test("fromEdges with duplicates, reversed pairs and loops equals the clean CSR") {
    val n = 30
    val clean = new Random(12).shuffle(for (u <- 0 until n; v <- u + 1 until n) yield (u, v)).take(90)
    val noisy = new Random(13).shuffle(
      clean ++ clean.map(_.swap) ++ clean.take(20) ++ clean.takeRight(10).map(_.swap) ++ (0 until n by 4).map(v => (v, v)))
    val g = LocalGraph.fromEdges(n, noisy)
    assert(g.validate() eq g)
    for (v <- 0 until n) {
      val want = clean.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }.sorted
      assert(g.neighbors(v).toSeq == want, s"vertex $v")
    }
    assert(g.m == clean.size)
  }

  test("fromEdges rejects an endpoint outside [0, n), naming the edge") {
    for (e <- Seq((0, 3), (-1, 2), (3, 3))) {
      val ex = intercept[IllegalArgumentException](LocalGraph.fromEdges(3, Seq((0, 1), e)))
      assert(ex.getMessage.contains(s"edge (${e._1}, ${e._2}) has an endpoint outside [0, 3)"), ex.getMessage)
    }
  }

  test("validate accepts every fromEdges graph and returns it") {
    for (g <- Seq(LocalGraph.complete(5), LocalGraph.star(4), GraphGen.erLocal(40, 0.2, 5),
                  LocalGraph.fromEdges(3, Seq.empty), LocalGraph.fromEdges(0, Seq.empty)))
      assert(g.validate() eq g)
  }

  test("validate rejects a broken CSR, naming the first bad vertex") {
    // The path 0-1-2 is offsets (0, 1, 3, 4), adj (1, 0, 2, 1).
    val broken = Seq(
      "unsorted" -> (Array(0, 1, 3, 4), Array(1, 2, 0, 1), "vertex 1"),
      "duplicate" -> (Array(0, 1, 3, 4), Array(1, 0, 0, 1), "vertex 1"),
      "self-loop" -> (Array(0, 1, 3, 4), Array(1, 0, 1, 1), "vertex 1"),
      "asymmetric" -> (Array(0, 1, 2, 3), Array(1, 0, 1), "vertex 2"),
      "out-of-range neighbour" -> (Array(0, 1, 3, 4), Array(1, 0, 3, 1), "vertex 1"),
      "negative neighbour" -> (Array(0, 1, 3, 4), Array(1, -1, 0, 1), "vertex 1"),
      "offsets not from 0" -> (Array(1, 1, 3, 4), Array(1, 0, 2, 1), "offsets(0)"),
      "offsets decrease" -> (Array(0, 3, 1, 4), Array(1, 0, 2, 1), "vertex 1"),
      "offsets short of adj" -> (Array(0, 1, 3, 3), Array(1, 0, 2, 1), "offsets(3)"),
    )
    for ((name, (offsets, adj, first)) <- broken) {
      val ex = intercept[IllegalArgumentException](new LocalGraph(offsets, adj).validate())
      assert(ex.getMessage.contains(first), s"$name: ${ex.getMessage}")
    }
  }

  test("neighbors are sorted") {
    val g = LocalGraph.fromEdges(5, Seq((2, 4), (2, 0), (2, 3), (2, 1)))
    assert(g.neighbors(2).toSeq == Seq(0, 1, 3, 4))
  }

  test("hasEdge both directions, absent edges") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2)))
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(1, 2) && g.hasEdge(2, 1))
    assert(!g.hasEdge(0, 2) && !g.hasEdge(0, 3))
  }

  test("complete graph K5 invariants") {
    val g = LocalGraph.complete(5)
    assert(g.n == 5 && g.m == 10 && g.maxDegree == 4)
    for (v <- 0 until 5) assert(g.degree(v) == 4)
  }

  test("cycle, path, star shapes") {
    val c = LocalGraph.cycle(6)
    assert(c.m == 6 && c.maxDegree == 2)
    val p = LocalGraph.path(6)
    assert(p.m == 5 && p.degree(0) == 1 && p.degree(3) == 2)
    val s = LocalGraph.star(6)
    assert(s.m == 5 && s.degree(0) == 5 && s.degree(1) == 1)
  }

  test("edgeList emits each undirected edge once, u < v") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (3, 2), (4, 1)))
    assert(g.edgeList.toSeq.sorted == Seq((0, 1), (1, 4), (2, 3)))
  }

  test("orient on a 4-cycle keeps the arcs that rise in rank") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 3)))
    val rank = Array(0, 1, 2, 3)
    val o = g.orient(rank)
    val arcs = for (u <- 0 until o.n; v <- o.neighbors(u)) yield (u, v)
    assert(arcs.sorted == Seq((0, 1), (0, 3), (1, 2), (2, 3)))
  }

  test("orient keeps exactly one direction per edge") {
    val rnd = new Random(11)
    val g = GraphGen.erLocal(30, 0.3, 3)
    val rank = rnd.shuffle((0 until 30).toList).toArray
    val o = g.orient(rank)
    assert(o.adj.length == g.m)
    for (u <- 0 until o.n; v <- o.neighbors(u)) {
      assert(rank(u) < rank(v))
      assert(g.hasEdge(u, v))
    }
  }

  test("orient equals its definitional arc filter on a random graph") {
    val g = GraphGen.erLocal(50, 0.2, 13)
    val rank = new Random(14).shuffle((0 until 50).toList).toArray
    val o = g.orient(rank)
    assert(o.n == g.n)
    for (u <- 0 until g.n)
      assert(o.neighbors(u).toSeq == g.neighbors(u).filter(v => rank(u) < rank(v)).toSeq, s"vertex $u")
  }

  test("orient under degeneracy order bounds out-degree by degeneracy") {
    val g = GraphGen.erLocal(60, 0.15, 4)
    val (rank, _, d) = Reorder.degeneracyLocal(g)
    val o = g.orient(rank)
    assert(o.maxDegree <= d)
  }

  test("inducedSubgraph of K5 on 3 vertices is K3") {
    val g = LocalGraph.complete(5)
    val (h, ids) = g.inducedSubgraph(Array(1, 3, 4))
    assert(h.n == 3 && h.m == 3)
    assert(ids.toSeq == Seq(1, 3, 4))
    assert(h.neighbors(0).toSeq == Seq(1, 2))
  }

  test("inducedSubgraph preserves exactly the internal edges") {
    val g = GraphGen.erLocal(40, 0.2, 5)
    // Unsorted: a BFS order from the top-degree vertex over shuffled
    // neighbours, as SI's query extraction passes it.
    val rnd = new Random(15)
    val bfs = {
      val seen = scala.collection.mutable.LinkedHashSet((0 until g.n).maxBy(g.degree))
      val queue = scala.collection.mutable.Queue(seen.head)
      while (seen.size < 9 && queue.nonEmpty)
        rnd.shuffle(g.neighbors(queue.dequeue()).toSeq).foreach(w => if (seen.size < 9 && seen.add(w)) queue += w)
      seen.toArray
    }
    assert(bfs.toSeq != bfs.sorted.toSeq)
    for (verts <- Seq(Array(2, 5, 7, 11, 13, 20, 33), bfs)) {
      val (h, ids) = g.inducedSubgraph(verts)
      assert(h.validate() eq h)
      assert(ids.toSeq == verts.toSeq)
      for (i <- verts.indices; j <- verts.indices if i != j) {
        assert(h.hasEdge(i, j) == g.hasEdge(ids(i), ids(j)))
      }
    }
  }

  test("neighborhoods materialise per set representation") {
    val g = LocalGraph.complete(4)
    for (f <- SetFactory.all) {
      val nbh = g.neighborhoods(f)
      assert(nbh(0).toArray.toSeq == Seq(1, 2, 3))
      assert(nbh(2).toArray.toSeq == Seq(0, 1, 3))
    }
  }

  test("empty / edgeless graphs behave") {
    val g = LocalGraph.fromEdges(3, Seq.empty)
    assert(g.n == 3 && g.m == 0 && g.maxDegree == 0)
    assert(g.neighbors(1).isEmpty)
  }

  test("csrBytes grows with graph size") {
    val small = LocalGraph.complete(4)
    val big = LocalGraph.complete(20)
    assert(big.csrBytes > small.csrBytes)
  }
}
