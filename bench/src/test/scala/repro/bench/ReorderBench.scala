package repro.bench

import repro.SparkSpec
import repro.core.{KCore, MaximalCliques}
import repro.graph.Reorder
import repro.metrics.Metrics
import repro.setalg.SetFactory

/** Fig. 6 — the reordering analysis: time and peeling rounds to compute
  * DEG, exact DGR, and ADG at ε ∈ {0.5, 0.1, 0.01} on the CSR; then the
  * runtime of Eppstein-style BK (the roaring-set BK kernel) after each
  * reordering, on a power-law graph. The paper's claims: ADG needs
  * O(log n) rounds where DGR needs O(n), while reducing BK time to a
  * comparable level, and smaller ε costs slightly more reorder work for
  * slightly better BK time.
  */
class ReorderBench extends SparkSpec {

  test("Fig 6: reorder cost and its effect on BK") {
    val g = BenchGraphs.byName("kron-social").build(spark)
    val local = g.toLocal
    val schemes = Seq[(String, Reorder.Order)](
      "DEG"          -> Reorder.DegOrder,
      "DGR"          -> Reorder.DgrOrder,
      "ADG(eps=0.5)" -> Reorder.AdgOrder(0.5),
      "ADG(eps=0.1)" -> Reorder.AdgOrder(0.1),
      "ADG(eps=0.01)"-> Reorder.AdgOrder(0.01))
    val d = KCore.degeneracy(local)
    // JIT warm-up outside the measured region.
    schemes.foreach { case (_, order) => Reorder.rank(local, order) }
    val rows = schemes.map { case (name, order) =>
      val (rank, reorderSec) = Metrics.timed(Reorder.rank(local, order))
      val rounds = order match {
        case p: Reorder.PeelOrder => Reorder.peel(local, p)._2.toString
        case _                    => "-"
      }
      val later = Reorder.maxLaterDegree(local, rank)
      val variant = MaximalCliques.Variant(s"BK-E+$name", order, SetFactory.roaring)
      val bk = MaximalCliques.mineLocal(spark, local, rank, variant)
      Seq(name, rounds, Metrics.f3(reorderSec), later.toString, s"d=$d",
          Metrics.f2(bk.mineSec), Metrics.f2(reorderSec + bk.mineSec))
    }
    Metrics.printTable("Fig 6 (reproduced): reordering analysis (kron-social)",
      Seq("reordering", "rounds", "reorder_s", "maxLaterDeg", "degeneracy", "bk_mine_s", "bk_total_s"),
      rows)
  }
}
