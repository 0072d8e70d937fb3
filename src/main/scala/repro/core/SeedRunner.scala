package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import org.apache.spark.{SparkContext, TaskContext, TaskKilledException}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import repro.graph.LocalGraph
import scala.reflect.ClassTag

/** The Spark half of every seed-parallel kernel: the distributed-dataflow
  * analogue of the paper's OpenMP parallel-for over the outermost search
  * level (§6.2-6.4), with its dynamic schedule.
  *
  * The kernel's data is broadcast once, and one Spark task reads it and runs
  * T threads: its own and T − 1 daemon threads named `seed-runner-<i>`. Each
  * thread claims the next unit (a seed vertex, or an arc of a CSR) from one
  * shared counter until none is left, so no core idles while units remain
  * and no placement decides which thread gets the heavy seeds. A thread sees
  * its units in ascending order and returns one partial result. There is no
  * shuffle. The threads share one JVM, so this schedule spans one executor's
  * cores: the single-JVM `local[*]` deployment.
  */
object SeedRunner {

  /** Broadcast `data` and run `task(data, myUnits)` on T threads of one
    * Spark task over `units` units, where T is `tasks` if positive, else the
    * default parallelism, and never more than `units`. Returns one partial
    * per thread. The broadcast is destroyed when the job ends, also when it
    * fails.
    */
  def run[D: ClassTag, R: ClassTag](sc: SparkContext, data: D, units: Int, tasks: Int)
                                   (task: (D, Iterator[Int]) => R): Array[R] =
    runOn(sc, sc.broadcast(data), units, if (tasks > 0) tasks else sc.defaultParallelism)(task)

  private[core] def runOn[D, R: ClassTag](sc: SparkContext, bc: Broadcast[D], units: Int, threads: Int)
                                         (task: (D, Iterator[Int]) => R): Array[R] =
    try {
      val t = math.min(threads, units)
      if (t == 0) Array.empty[R]
      else sc.parallelize(Seq(t), 1).map(pooled(bc.value, units, _)(task)).collect().head
    } finally bc.destroy()

  /** `task` on `threads` threads (the calling Spark task's and `threads - 1`
    * new ones) that claim units from one counter. A failure, or the Spark
    * task being killed, moves the counter to `units`, so every thread stops
    * claiming; every thread is joined before this returns or throws.
    */
  private def pooled[D, R: ClassTag](data: D, units: Int, threads: Int)
                                    (task: (D, Iterator[Int]) => R): Array[R] = {
    val ctx = TaskContext.get()
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    val out = new Array[R](threads)
    def work(i: Int): Unit =
      try out(i) = task(data, new Claims(next, units, ctx))
      catch {
        case e: Throwable =>
          next.set(units)
          if (!failure.compareAndSet(null, e)) failure.get.addSuppressed(e)
      }
    val helpers = new Array[Thread](threads - 1)
    var started = 0
    var interrupted = false
    try {
      while (started < helpers.length) {
        val i = started + 1
        val th = new Thread(() => work(i), s"seed-runner-$i")
        th.setDaemon(true)
        th.start()
        helpers(started) = th
        started += 1
      }
      work(0)
    } catch {
      case e: Throwable => next.set(units); throw e
    } finally {
      for (j <- 0 until started) {
        while (helpers(j).isAlive)
          try helpers(j).join()
          catch { case _: InterruptedException => interrupted = true; next.set(units) }
      }
    }
    if (failure.get != null) throw failure.get
    if (ctx.isInterrupted()) throw new TaskKilledException("killed while its runner threads claimed units")
    if (interrupted) throw new InterruptedException("seed runner interrupted while joining its threads")
    out
  }

  /** The units one thread claims from `next`, ascending; none once `ctx`'s
    * task is killed, which also ends the other threads' claims.
    */
  private final class Claims(next: AtomicInteger, units: Int, ctx: TaskContext) extends Iterator[Int] {
    private var unit = -1

    def hasNext: Boolean = {
      if (unit < 0) {
        if (ctx.isInterrupted()) next.set(units)
        unit = next.getAndIncrement()
      }
      unit < units
    }

    def next(): Int = {
      if (!hasNext) throw new NoSuchElementException("no unit left")
      val u = unit
      unit = -1
      u
    }
  }

  /** [[run]] for tasks that emit rows: an RDD of what `task(data, myUnits)`
    * yields in each of T Spark tasks (T = `tasks` if positive, else 4× the
    * default parallelism), task t taking units `t, t+T, t+2T, …`, collected
    * nowhere. The placement is fixed because the RDD is lazy and must yield
    * the same rows each time it is evaluated. `data` travels in the task
    * closure, which Spark ships once per stage, and not in a broadcast: no
    * point exists at which a broadcast could be destroyed.
    */
  def rows[D, R: ClassTag](sc: SparkContext, data: D, units: Int, tasks: Int)
                          (task: (D, Iterator[Int]) => Iterator[R]): RDD[R] = {
    val nTasks = if (tasks > 0) tasks else sc.defaultParallelism * 4
    sc.parallelize(0 until nTasks, nTasks).flatMap(t => task(data, Iterator.range(t, units, nTasks)))
  }

  /** The values of a [[run]] whose threads emit one `(unit, value)` pair
    * per unit, as one array indexed by unit.
    */
  private[core] def byUnit[R: ClassTag](units: Int, perThread: Array[Array[(Int, R)]]): Array[R] = {
    val out = new Array[R](units)
    for (pairs <- perThread; (u, r) <- pairs) out(u) = r
    out
  }

  /** Σ `f(u, v)` over the arcs of `g`'s CSR whose indices `arcs` yields in
    * ascending order (a thread's units when they are arcs); `u`, the source,
    * is found by one forward walk over the offsets.
    */
  def sumArcs(g: LocalGraph, arcs: Iterator[Int])(f: (Int, Int) => Long): Long = {
    var u = 0
    var total = 0L
    while (arcs.hasNext) {
      val a = arcs.next()
      while (g.offsets(u + 1) <= a) u += 1
      total += f(u, g.adj(a))
    }
    total
  }
}
