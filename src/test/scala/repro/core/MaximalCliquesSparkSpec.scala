package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, Reorder, SparkGraph}

/** Distributed end-to-end checks: every Fig.-4 variant must produce the same
  * clique count, max size, and size sum as the driver-side reference on the
  * same graph, and timing/throughput bookkeeping must be sane.
  */
class MaximalCliquesSparkSpec extends SparkSpec {

  private lazy val local = GraphGen.erLocal(120, 0.08, 21)
  private lazy val g = SparkGraph.fromLocal(spark, local)

  private lazy val reference = {
    val rank = Array.range(0, local.n)
    MaximalCliques.listLocal(local, rank, repro.setalg.SetFactory.sorted)
  }

  for (variant <- MaximalCliques.allVariants) {
    test(s"${variant.name}: distributed count matches reference") {
      val r = MaximalCliques.run(g, variant)
      assert(r.cliques == reference.size)
      assert(r.maxSize == reference.map(_.size).max)
      assert(r.sumSizes == reference.map(_.size.toLong).sum)
      assert(r.reorderSec >= 0 && r.mineSec > 0)
      assert(r.throughput > 0)
    }
  }

  test("distributed listing equals local listing (set equality)") {
    val got = MaximalCliques.listLocal(local, Reorder.rank(local, MaximalCliques.BkGmsDgr.order),
                                       MaximalCliques.BkGmsDgr.sets).toSet
    assert(got == reference.map(_.toSeq).toSet)
  }

  test("task-capped run (thread-scaling mode) is still exact") {
    val r1 = MaximalCliques.run(g, MaximalCliques.BkGmsAdg(), tasks = 1)
    val r2 = MaximalCliques.run(g, MaximalCliques.BkGmsAdg(), tasks = 8)
    assert(r1.cliques == reference.size)
    assert(r2.cliques == reference.size)
  }

  test("planted-clique graph: the planted cliques are found maximal") {
    val pg = GraphGen.plantedCliques(spark, n = 150, bgEdges = 0,
                                     cliques = 3, sizes = Seq(6))
    val r = MaximalCliques.run(pg, MaximalCliques.BkGmsAdgS())
    // 3 planted K6 + all untouched vertices as singletons (150 - 18 = 132)
    assert(r.maxSize == 6)
    assert(r.cliques == 3 + 132)
  }

  test("clique-free sparse graph: every edge is a maximal clique") {
    val grid = GraphGen.grid(spark, 10, 10)
    val r = MaximalCliques.run(grid, MaximalCliques.BkDas)
    assert(r.cliques == grid.m)
    assert(r.maxSize == 2)
  }

  test("a short or repeated rank is rejected on the driver") {
    for (rank <- Seq(Array.range(0, local.n - 1), new Array[Int](local.n)); variant <- MaximalCliques.allVariants) {
      assertThrows[IllegalArgumentException](MaximalCliques.mineLocal(spark, local, rank, variant))
      assertThrows[IllegalArgumentException](MaximalCliques.listLocal(local, rank, variant.sets, variant.subgraphOpt))
    }
  }

  test("variants on a denser graph all agree") {
    val dense = SparkGraph.fromLocal(spark, GraphGen.erLocal(60, 0.25, 22))
    val counts = MaximalCliques.allVariants.map(v => MaximalCliques.run(dense, v).cliques)
    assert(counts.distinct.size == 1)
  }
}
