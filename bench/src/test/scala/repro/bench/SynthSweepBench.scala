package repro.bench

import repro.SparkSpec
import repro.core.MaximalCliques
import repro.graph.GraphGen
import repro.metrics.Metrics

/** Fig. 8a — synthetic-graph analysis: Kronecker power-law graphs at scale
  * 10 and 11, sweeping the average degree m/n via the edge factor, and
  * splitting total BK-GMS-DGR runtime into preprocessing (reorder) vs
  * mining. The paper's claim: for very sparse graphs mining is cheaper than
  * reordering's fixed cost, and reordering grows to dominate with m/n
  * because Kronecker graphs stay clique-poor.
  */
class SynthSweepBench extends SparkSpec {

  test("Fig 8a: mining vs preprocessing across sparsity on Kronecker graphs") {
    val rows = for {
      scale <- Seq(10, 11)
      ef <- Seq(1, 2, 4, 8, 16, 32, 64)
    } yield {
      val g = GraphGen.rmat(spark, scale, ef)
      val r = MaximalCliques.run(g, MaximalCliques.BkGmsDgr)
      Seq(scale.toString, ef.toString, Metrics.f2(g.m.toDouble / g.n),
          r.cliques.toString, Metrics.f3(r.reorderSec), Metrics.f2(r.mineSec))
    }
    Metrics.printTable("Fig 8a (reproduced): Kronecker sparsity sweep (BK-GMS-DGR)",
      Seq("scale", "edgeFactor", "m/n", "cliques", "preprocessing_s", "mining_s"),
      rows)
  }
}
