package repro.bench

import java.lang.management.ManagementFactory
import repro.SparkSpec
import repro.core.MaximalCliques
import repro.metrics.Metrics

/** Fig. 8b — machine-efficiency analysis: BK-GMS-ADG runtime versus the
  * thread count, plus the PAPI-substitute stall metric (1 − CPU-busy
  * fraction, from the process CPU time around each run). Reproduced claim:
  * speedups flatten as threads grow while the stall fraction rises — clique
  * mining is memory-bound.
  */
class ScalingBench extends SparkSpec {

  /** CPU time of every thread of this JVM: the runner's threads, and also
    * GC, JIT and Spark's own threads.
    */
  private def processCpuSec: Double =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  test("Fig 8b: thread scaling with CPU-utilization proxy") {
    val g = BenchGraphs.byName("kron-social").build(spark)
    val local = g.toLocal
    val rank = repro.graph.Reorder.rank(local, repro.graph.Reorder.AdgOrder(0.1))
    // JIT warm-up outside the measured region.
    MaximalCliques.mineLocal(spark, local, rank, MaximalCliques.BkGmsAdg())
    val rows = Seq(1, 2, 4, 8, 16).map { threads =>
      val cpu0 = processCpuSec
      val (r, wall) = Metrics.timed(
        MaximalCliques.mineLocal(spark, local, rank, MaximalCliques.BkGmsAdg(),
                                 tasks = threads))
      val cpuSec = processCpuSec - cpu0
      val stall = Metrics.stallProxy(cpuSec, wall, threads)
      Seq(threads.toString, Metrics.f2(wall), Metrics.f2(r.mineSec),
          Metrics.f2(cpuSec), Metrics.f2(stall))
    }
    Metrics.printTable("Fig 8b (reproduced): BK thread scaling (kron-social)",
      Seq("threads", "wall_s", "mine_s", "cpu_busy_s", "stall_proxy"),
      rows)
  }
}
