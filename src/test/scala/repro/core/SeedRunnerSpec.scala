package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkException
import repro.SparkSpec
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

object SeedRunnerSpec {
  /** Units the runner has run, read by the test while a job runs: a
    * counter captured in the task closure would be a copy.
    */
  val ran = new AtomicInteger(0)

  def runnerThreadsAlive: Boolean =
    Thread.getAllStackTraces.keySet.asScala.exists(t => t.isAlive && t.getName.startsWith("seed-runner-"))
}

class SeedRunnerSpec extends SparkSpec {
  import SeedRunnerSpec._

  private def sc = spark.sparkContext

  for ((what, units) <- Seq("no units" -> 0, "fewer units than tasks" -> 5,
                            "many more units than tasks" -> 10007)) {
    test(s"every unit runs exactly once: $what") {
      val perThread = SeedRunner.run(sc, (), units, tasks = 16)((_, us) => us.toArray)
      assert(perThread.length == math.min(16, units))
      assert(perThread.flatten.sorted.toSeq == (0 until units))
    }
  }

  test("each thread's units ascend") {
    val perThread = SeedRunner.run(sc, (), 100003, tasks = 8)((_, us) => us.toArray)
    assert(perThread.length == 8)
    perThread.foreach(us => assert(us.indices.drop(1).forall(i => us(i - 1) < us(i))))
    assert(perThread.flatten.sorted.toSeq == (0 until 100003))
  }

  test("tasks = 0 starts defaultParallelism threads") {
    // 64 units: never more than 64 threads, whatever the core count.
    val perThread = SeedRunner.run(sc, (), 64, tasks = 0)((_, us) => (us.size, Thread.currentThread.getName))
    val t = math.min(sc.defaultParallelism, 64)
    assert(perThread.map(_._1).sum == 64)
    val names = perThread.map(_._2)
    assert(names.length == t && names.distinct.length == t)
    assert(names.tail.toSeq == (1 until t).map(i => s"seed-runner-$i"))
  }

  test("the thread count never exceeds the number of units") {
    for (units <- 1 to 5; tasks <- Seq(3, 64)) {
      val perThread = SeedRunner.run(sc, (), units, tasks)((_, us) => us.size)
      assert(perThread.length == math.min(tasks, units), s"$units units, tasks = $tasks")
      assert(perThread.sum == units)
    }
  }

  test("every task reads the broadcast data") {
    val data = Array.range(0, 50)
    val sums = SeedRunner.run(sc, data, data.length, tasks = 3)((d, us) => us.map(d(_).toLong).sum)
    assert(sums.sum == data.map(_.toLong).sum)
  }

  test("a failing unit reaches the caller, and the broadcast is destroyed") {
    val units = 1000000
    val bc = sc.broadcast(Array(1, 2, 3))
    ran.set(0)
    val e = intercept[SparkException] {
      SeedRunner.runOn(sc, bc, units, 4) { (d, us) =>
        us.map { u =>
          if (u == 42) throw new IllegalStateException("unit 42 failed")
          ran.incrementAndGet()
          d(0)
        }.sum
      }
    }
    assert(e.getMessage.contains("unit 42 failed"))
    intercept[SparkException](bc.value)
    // The failure stopped the claims, and every runner thread was joined.
    assert(ran.get < units / 2, s"${ran.get} units ran after unit 42 failed")
    assert(!runnerThreadsAlive)
  }

  test("a cancelled job stops the claims and ends its threads") {
    val units = 1000000
    ran.set(0)
    val job = Future(SeedRunner.run(sc, (), units, tasks = 4) { (_, us) =>
      us.foreach { _ => ran.incrementAndGet(); Thread.sleep(1) }
    })
    while (ran.get < 100 && !job.isCompleted) Thread.sleep(10)
    sc.cancelAllJobs()
    intercept[SparkException](Await.result(job, 60.seconds))
    val deadline = System.nanoTime() + 30.seconds.toNanos
    while (runnerThreadsAlive && System.nanoTime() < deadline) Thread.sleep(10)
    assert(!runnerThreadsAlive)
    assert(ran.get < units / 2, s"${ran.get} units ran")
  }
}
