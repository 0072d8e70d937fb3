package repro.bench

import repro.SparkSpec
import repro.core.KClique
import repro.graph.Reorder
import repro.metrics.Metrics

/** Fig. 5 — k-clique listing under DEG / DGR / ADG reorderings (with the
  * reorder-time fraction), and Fig. 9 — GMS (edge-parallel + ADG) vs GMS's
  * own edge-parallel kernel under Danisch et al.'s degeneracy order (DGR;
  * kClist itself is not ported) and a GBBS-style node-parallel scheme, at
  * larger k.
  */
class KCliqueBench extends SparkSpec {

  test("Fig 5: k-clique listing, reordering sweep") {
    val graphs = Seq("kron-social", "planted-rec").map(BenchGraphs.byName)
    val orders = Seq[(String, Reorder.Order)](
      "DEG" -> Reorder.DegOrder,
      "DGR" -> Reorder.DgrOrder,
      "ADG" -> Reorder.AdgOrder(0.1))
    val rows = for {
      ng <- graphs
      g = ng.build(spark)
      k <- Seq(4, 5)
      (oname, order) <- orders
    } yield {
      val r = KClique.run(g, k, order)
      Seq(ng.name, k.toString, s"KC-$oname", r.cliques.toString,
          Metrics.f2(r.reorderSec), Metrics.f2(r.mineSec), Metrics.f2(r.totalSec),
          Metrics.human(r.throughput))
    }
    assert(rows.groupBy(r => (r.head, r(1))).values.forall(_.map(_(3)).distinct.size == 1),
           "orders disagree on clique counts")
    Metrics.printTable("Fig 5 (reproduced): k-clique listing",
      Seq("graph", "k", "variant", "cliques", "reorder_s", "mine_s", "total_s", "cliques/s"),
      rows)
  }

  test("Fig 9: GMS-EP-ADG vs node-parallel (GBBS-style) vs GMS-EP-DGR") {
    val graphs = Seq("lattice-struct", "planted-rec").map(BenchGraphs.byName)
    val schemes = Seq[(String, Reorder.Order, KClique.Mode)](
      ("GMS-EP-DGR", Reorder.DgrOrder, KClique.EdgeParallel),
      ("GBBS-NP-DGR", Reorder.DgrOrder, KClique.NodeParallel),
      ("GMS-EP-ADG", Reorder.AdgOrder(0.1), KClique.EdgeParallel))
    val rows = for {
      ng <- graphs
      g = ng.build(spark)
      k <- Seq(5, 6)
      (name, order, mode) <- schemes
    } yield {
      val r = KClique.run(g, k, order, mode)
      Seq(ng.name, k.toString, name, r.cliques.toString,
          Metrics.f2(r.totalSec), Metrics.human(r.throughput))
    }
    assert(rows.groupBy(r => (r.head, r(1))).values.forall(_.map(_(3)).distinct.size == 1),
           "schemes disagree on clique counts")
    Metrics.printTable("Fig 9 (reproduced): k-clique infrastructure comparison",
      Seq("graph", "k", "scheme", "cliques", "total_s", "cliques/s"),
      rows)
  }
}
