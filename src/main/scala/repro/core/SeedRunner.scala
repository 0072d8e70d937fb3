package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import repro.graph.LocalGraph
import scala.reflect.ClassTag

/** The Spark half of every seed-parallel kernel: the distributed-dataflow
  * analogue of the paper's OpenMP parallel-for over the outermost search
  * level (§6.2-6.3).
  *
  * The kernel's data is broadcast once; task `t` of `T` then runs units
  * `t, t+T, t+2T, …` (seed vertices, or arcs of a CSR) and returns
  * one partial result, collected in task order. There is no shuffle: a task
  * is an index, and the units are strided so that runs of heavy neighboring
  * seeds spread over all tasks.
  */
object SeedRunner {

  /** Broadcast `data` and run `task(data, myUnits)` as `T` Spark tasks over
    * `units` units, where `T` is `tasks` if positive, else 4× the default
    * parallelism. The broadcast is destroyed when the job ends, also when it
    * fails.
    */
  def run[D: ClassTag, R: ClassTag](sc: SparkContext, data: D, units: Int, tasks: Int)
                                   (task: (D, Iterator[Int]) => R): Array[R] =
    runOn(sc, sc.broadcast(data), units, if (tasks > 0) tasks else sc.defaultParallelism * 4)(task)

  private[core] def runOn[D, R: ClassTag](sc: SparkContext, bc: Broadcast[D], units: Int, nTasks: Int)
                                         (task: (D, Iterator[Int]) => R): Array[R] =
    try {
      sc.parallelize(0 until nTasks, nTasks)
        .map(t => task(bc.value, Iterator.range(t, units, nTasks)))
        .collect()
    } finally bc.destroy()

  /** [[run]] for tasks that emit rows: an RDD of what `task(data, myUnits)`
    * yields in each of the `T` tasks, collected nowhere. `data` travels in
    * the task closure, which Spark ships once per stage, and not in a
    * broadcast: the RDD is lazy and may be evaluated again, so no point
    * exists at which a broadcast could be destroyed.
    */
  def rows[D, R: ClassTag](sc: SparkContext, data: D, units: Int, tasks: Int)
                          (task: (D, Iterator[Int]) => Iterator[R]): RDD[R] = {
    val nTasks = if (tasks > 0) tasks else sc.defaultParallelism * 4
    sc.parallelize(0 until nTasks, nTasks).flatMap(t => task(data, Iterator.range(t, units, nTasks)))
  }

  /** The per-task arrays of a [[run]] that yields one value per unit as
    * one array indexed by unit: unit u is task u % T's (u / T)-th value.
    */
  private[core] def byUnit[R: ClassTag](perTask: Array[Array[R]]): Array[R] =
    Array.tabulate(perTask.iterator.map(_.length).sum)(u => perTask(u % perTask.length)(u / perTask.length))

  /** Σ `f(u, v)` over the arcs of `g`'s CSR whose indices `arcs` yields in
    * ascending order (a task's units when they are arcs); `u`, the source,
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
