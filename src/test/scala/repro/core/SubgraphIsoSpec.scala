package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, SparkGraph}
import repro.setalg.SetFactory

class SubgraphIsoSpec extends SparkSpec {

  private val unl = (n: Int) => Array.fill(n)(0) // unlabeled = one label

  private def pattern(g: LocalGraph): SubgraphIso.Pattern =
    SubgraphIso.Pattern(g, unl(g.n))

  private val triangle = pattern(LocalGraph.complete(3))
  private val path3    = pattern(LocalGraph.path(3))
  private val square   = pattern(LocalGraph.cycle(4))

  test("triangle embeddings in K_n: n(n-1)(n-2), induced = non-induced") {
    for (n <- 3 to 6) {
      val g = SparkGraph.fromLocal(spark, LocalGraph.complete(n))
      val want = n.toLong * (n - 1) * (n - 2)
      assert(SubgraphIso.count(g, unl(n), triangle, induced = false) == want)
      assert(SubgraphIso.count(g, unl(n), triangle, induced = true) == want)
    }
  }

  test("P3 in a triangle: 6 non-induced, 0 induced") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.complete(3))
    assert(SubgraphIso.count(g, unl(3), path3, induced = false) == 6)
    assert(SubgraphIso.count(g, unl(3), path3, induced = true) == 0)
  }

  test("square in K4: 24 non-induced, 0 induced") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.complete(4))
    assert(SubgraphIso.count(g, unl(4), square, induced = false) == 24)
    assert(SubgraphIso.count(g, unl(4), square, induced = true) == 0)
  }

  test("square in C4 itself: 8 both ways (automorphisms of C4)") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.cycle(4))
    assert(SubgraphIso.count(g, unl(4), square, induced = false) == 8)
    assert(SubgraphIso.count(g, unl(4), square, induced = true) == 8)
  }

  for (seed <- 1 to 3; induced <- Seq(false, true)) {
    test(s"ER target seed=$seed induced=$induced matches brute force") {
      val target = GraphGen.erLocal(8, 0.4, seed)
      val rnd = new scala.util.Random(seed)
      val tl = Array.fill(target.n)(rnd.nextInt(2))
      val q = GraphGen.erLocal(3, 0.8, seed + 10)
      val p = SubgraphIso.Pattern(q, Array.fill(q.n)(rnd.nextInt(2)))
      val g = SparkGraph.fromLocal(spark, target)
      val want = SubgraphIso.bruteForce(target, tl, p, induced)
      for (v <- SubgraphIso.allVariants) {
        assert(SubgraphIso.count(g, tl, p, induced, v) == want, s"variant=${v.name}")
      }
    }
  }

  test("labels restrict matches") {
    // Path a-b-c with labels 0-1-0; query edge with labels (0,1).
    val target = LocalGraph.path(3)
    val g = SparkGraph.fromLocal(spark, target)
    val edgeQ = SubgraphIso.Pattern(LocalGraph.path(2), Array(0, 1))
    // Mappings: (0→a,1→b) and (0→c,1→b): 2
    assert(SubgraphIso.count(g, Array(0, 1, 0), edgeQ, induced = false) == 2)
    val edgeQ11 = SubgraphIso.Pattern(LocalGraph.path(2), Array(1, 1))
    assert(SubgraphIso.count(g, Array(0, 1, 0), edgeQ11, induced = false) == 0)
  }

  test("all variants agree on a mid-size labeled ER target") {
    val target = GraphGen.erLocal(60, 0.12, 31)
    val rnd = new scala.util.Random(31)
    val tl = Array.fill(target.n)(rnd.nextInt(3))
    val q = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 2)))
    val p = SubgraphIso.Pattern(q, Array.fill(4)(rnd.nextInt(3)))
    val g = SparkGraph.fromLocal(spark, target)
    val counts = for (v <- SubgraphIso.allVariants; ind <- Seq(false, true))
      yield (v.name, ind, SubgraphIso.count(g, tl, p, ind, v))
    for (ind <- Seq(false, true)) {
      val cs = counts.filter(_._2 == ind).map(_._3)
      assert(cs.distinct.size == 1, s"induced=$ind: $counts")
    }
  }

  test("disconnected query is handled (falls back to root split)") {
    val q = LocalGraph.fromEdges(3, Seq((0, 1))) // edge + isolated query vertex
    val p = pattern(q)
    val target = GraphGen.erLocal(7, 0.4, 33)
    val g = SparkGraph.fromLocal(spark, target)
    val want = SubgraphIso.bruteForce(target, unl(7), p, induced = false)
    for (v <- SubgraphIso.allVariants; f <- SetFactory.all) {
      assert(SubgraphIso.count(g, unl(7), p, induced = false, v, f) == want, s"variant=${v.name} sets=${f.name}")
    }
  }

  test("single-vertex query counts label-matching vertices") {
    val target = LocalGraph.path(4)
    val g = SparkGraph.fromLocal(spark, target)
    val q = SubgraphIso.Pattern(LocalGraph.fromEdges(1, Seq.empty), Array(1))
    assert(SubgraphIso.count(g, Array(1, 0, 1, 1), q, induced = false) == 3)
  }

  test("a unit whose prefix fails leaves no mark for the task's next unit") {
    // Path 0-1-2 labelled A, A, B; the query is one A-B edge. In one task the
    // arc units run in order: (0, 1) and (1, 0) install q₀ and then fail on
    // q₁'s label, and (1, 2), the one embedding, maps q₀ to vertex 1 again.
    val target = LocalGraph.path(3)
    val g = SparkGraph.fromLocal(spark, target)
    val labels = Array(0, 0, 1)
    val edgeQ = SubgraphIso.Pattern(LocalGraph.path(2), Array(0, 1))
    assert(SubgraphIso.bruteForce(target, labels, edgeQ, induced = false) == 1)
    for (v <- SubgraphIso.allVariants; f <- SetFactory.all)
      assert(SubgraphIso.count(g, labels, edgeQ, induced = false, v, f, tasks = 1) == 1,
             s"variant=${v.name} sets=${f.name}")
  }

  test("search order starts at max degree and stays connected") {
    val q = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (1, 3), (3, 4)))
    val ord = SubgraphIso.searchOrder(q)
    assert(ord(0) == 1) // degree-3 vertex
    // every later vertex has an earlier neighbor
    for (i <- 1 until ord.length) {
      assert(q.neighbors(ord(i)).exists(w => ord.take(i).contains(w)))
    }
  }

  test("task cap keeps counts exact (thread-scaling mode)") {
    val target = GraphGen.erLocal(40, 0.15, 35)
    val g = SparkGraph.fromLocal(spark, target)
    val p = triangle
    val want = SubgraphIso.count(g, unl(40), p, induced = false, SubgraphIso.Base)
    for (t <- Seq(1, 2, 8)) {
      assert(SubgraphIso.count(g, unl(40), p, induced = false,
                               SubgraphIso.WorkSteal, tasks = t) == want)
    }
  }

  // ER(12, 0.4) spread over n = 16: vertices 6, 7, 14 and 15 are isolated, so
  // the arc walk must step over empty rows and isolated roots get no unit;
  // 64 tasks outnumber both the 16 vertex and the 44 arc units.
  private val isoTarget = {
    def spread(v: Int) = if (v < 6) v else v + 2
    LocalGraph.fromEdges(16, GraphGen.erLocal(12, 0.4, 41).edgeList.map { case (u, v) => (spread(u), spread(v)) })
  }
  // Vertex 0 has q₀'s label and vertex 1 does not, so an arc walk that
  // credits vertex 0's arcs to another source changes the count.
  private val isoLabels = Array.tabulate(16)(_ % 2)
  private val pawQuery = SubgraphIso.Pattern( // triangle 0-1-2 plus pendant 3 on 2
    LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (0, 2), (2, 3))), Array(0, 1, 0, 1))
  // The paw's vertices have at most two mapped neighbours when they are
  // reached; K4's last has three, so its candidates take the in-place ∩ step.
  private val k4Query = SubgraphIso.Pattern(LocalGraph.complete(4), Array(0, 1, 0, 1))

  for (f <- SetFactory.all) {
    test(s"${f.name}: every variant × tasks ∈ {1, 3, 64} matches brute force on a target with isolated vertices") {
      val g = SparkGraph.fromLocal(spark, isoTarget)
      for ((qName, query) <- Seq("paw" -> pawQuery, "K4" -> k4Query); induced <- Seq(false, true)) {
        val want = SubgraphIso.bruteForce(isoTarget, isoLabels, query, induced)
        assert(want > 0, s"$qName induced=$induced")
        for (v <- SubgraphIso.allVariants; tasks <- Seq(1, 3, 64)) {
          assert(SubgraphIso.count(g, isoLabels, query, induced, v, f, tasks) == want,
                 s"$qName variant=${v.name} tasks=$tasks induced=$induced")
        }
      }
    }
  }

  test("labels shorter than the target are rejected on the driver") {
    val g = SparkGraph.fromLocal(spark, LocalGraph.path(4))
    val e = intercept[IllegalArgumentException] {
      SubgraphIso.count(g, Array(0, 0, 0), path3, induced = false)
    }
    assert(e.getMessage.contains("3 labels for 4 target vertices"))
  }
}
