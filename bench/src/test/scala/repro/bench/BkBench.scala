package repro.bench

import repro.SparkSpec
import repro.core.MaximalCliques
import repro.metrics.Metrics

/** Fig. 4 + Fig. 1 — maximal clique listing: BK-DAS baseline vs the four
  * GMS variants on every benchmark graph. Reports per-variant reorder /
  * mine / total seconds, speedup over BK-DAS (Fig. 4's y-axis), and the
  * algorithmic-throughput metric maximal-cliques-per-second (Fig. 1).
  */
class BkBench extends SparkSpec {

  test("Fig 4 / Fig 1: BK variants across all graphs") {
    val rows = scala.collection.mutable.ArrayBuffer.empty[Seq[String]]
    for (ng <- BenchGraphs.all) {
      val g = ng.build(spark)
      g.toLocal // collect the graph's CSR, which every variant's run then reuses
      val results = MaximalCliques.allVariants.map(v => (v, MaximalCliques.run(g, v)))
      val base = results.find(_._1.name == "BK-DAS").get._2
      // All variants must agree on the clique count — a bench that lies is useless.
      assert(results.map(_._2.cliques).distinct.size == 1,
             s"${ng.name}: variants disagree: ${results.map(r => r._1.name -> r._2.cliques)}")
      for ((v, r) <- results) {
        rows += Seq(ng.name, v.name, r.cliques.toString,
          Metrics.f2(r.reorderSec), Metrics.f2(r.mineSec), Metrics.f2(r.totalSec),
          Metrics.f2(base.totalSec / r.totalSec),
          Metrics.human(r.throughput))
      }
    }
    Metrics.printTable("Fig 4 (reproduced): maximal clique listing",
      Seq("graph", "variant", "cliques", "reorder_s", "mine_s", "total_s",
          "speedup_vs_DAS", "cliques/s"),
      rows.toSeq)
  }
}
