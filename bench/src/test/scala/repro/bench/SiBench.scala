package repro.bench

import repro.SparkSpec
import repro.core.SubgraphIso
import repro.graph.GraphGen
import repro.metrics.Metrics

/** Fig. 7 — subgraph isomorphism: the four GMS variants (static split,
  * depth-2 work splitting, stealing stood in for by units claimed one at
  * a time, candidate precompute) across a thread sweep, on a labeled ER target —
  * the §8.5 setup (labeled Erdős-Rényi) scaled to laptop size.
  */
class SiBench extends SparkSpec {

  test("Fig 7: SI variants × thread counts on labeled ER") {
    val rnd = new scala.util.Random(95)
    val target = GraphGen.erLocal(n = 1600, p = 0.02, seed = 95)
    val labels = Array.fill(target.n)(rnd.nextInt(3))
    // Query = a random connected induced subgraph of the target (BFS sample),
    // labels inherited — guarantees the query occurs, as with the paper's
    // query workload extracted from the target distribution.
    val qVerts = {
      // Rooted at the hub: the resulting star-ish query concentrates search
      // work around high-degree regions — the load-imbalance regime where
      // the paper's splitting/stealing optimizations matter.
      val start = (0 until target.n).maxBy(target.degree)
      val seen = scala.collection.mutable.LinkedHashSet(start)
      val queue = scala.collection.mutable.Queue(start)
      while (seen.size < 7 && queue.nonEmpty) {
        val v = queue.dequeue()
        rnd.shuffle(target.neighbors(v).toSeq).foreach { w =>
          if (seen.size < 7 && !seen.contains(w)) { seen += w; queue += w }
        }
      }
      seen.toArray
    }
    val (qGraph, qIds) = target.inducedSubgraph(qVerts)
    val pat = SubgraphIso.Pattern(qGraph, qIds.map(labels))

    // JIT / Spark warm-up so the first measured cell is not inflated.
    SubgraphIso.countLocal(spark, target, labels, pat, induced = false, SubgraphIso.WorkSteal, tasks = 16)

    var expect = -1L
    val rows = for {
      v <- SubgraphIso.allVariants
      threads <- Seq(1, 4, 16)
    } yield {
      val (c, t) = Metrics.timed(
        SubgraphIso.countLocal(spark, target, labels, pat, induced = false, v, tasks = threads))
      if (expect < 0) expect = c
      assert(c == expect, s"${v.name}@$threads: $c != $expect")
      Seq(v.name, threads.toString, c.toString, Metrics.f2(t))
    }
    Metrics.printTable("Fig 7 (reproduced): subgraph isomorphism",
      Seq("variant", "threads", "embeddings", "time_s"), rows)
  }
}
