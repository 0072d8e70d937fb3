package repro.bench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.repro.ListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.core.MaximalCliques
import repro.metrics.Metrics

/** Fig. 8b — machine-efficiency analysis: BK-GMS-DGR runtime versus the
  * emulated thread count, plus the PAPI-substitute stall metric (1 −
  * CPU-busy fraction from Spark task metrics). Reproduced claim: speedups
  * flatten as threads grow while the stall fraction rises — clique mining
  * is memory-bound.
  */
class ScalingBench extends SparkSpec {

  private final class CpuListener extends SparkListener {
    val cpuNanos = new AtomicLong(0)
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val m = e.taskMetrics
      if (m != null) cpuNanos.addAndGet(m.executorCpuTime)
    }
  }

  test("Fig 8b: thread scaling with CPU-utilization proxy") {
    val g = BenchGraphs.byName("kron-social").build(spark)
    val local = g.toLocal
    val rank = repro.graph.Reorder.rank(local, repro.graph.Reorder.AdgOrder(0.1))
    // JIT warm-up outside the measured region.
    MaximalCliques.mineLocal(spark, local, rank, MaximalCliques.BkGmsAdg())
    val rows = Seq(1, 2, 4, 8, 16).map { threads =>
      val listener = new CpuListener
      spark.sparkContext.addSparkListener(listener)
      val (r, wall) = Metrics.timed(
        MaximalCliques.mineLocal(spark, local, rank, MaximalCliques.BkGmsAdg(),
                                 tasks = threads))
      // Listener events post asynchronously; wait until all have arrived.
      ListenerBus.drain(spark.sparkContext)
      spark.sparkContext.removeSparkListener(listener)
      val cpuSec = listener.cpuNanos.get() / 1e9
      val stall = Metrics.stallProxy(cpuSec, wall, threads)
      Seq(threads.toString, Metrics.f2(wall), Metrics.f2(r.mineSec),
          Metrics.f2(cpuSec), Metrics.f2(stall))
    }
    Metrics.printTable("Fig 8b (reproduced): BK thread scaling (kron-social)",
      Seq("threads", "wall_s", "mine_s", "cpu_busy_s", "stall_proxy"),
      rows)
  }
}
