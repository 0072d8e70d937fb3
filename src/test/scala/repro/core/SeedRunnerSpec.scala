package repro.core

import org.apache.spark.SparkException
import repro.SparkSpec

class SeedRunnerSpec extends SparkSpec {

  private def sc = spark.sparkContext

  for ((what, units) <- Seq("no units" -> 0, "fewer units than tasks" -> 5,
                            "many more units than tasks" -> 10007)) {
    test(s"every unit runs exactly once: $what") {
      val perTask = SeedRunner.run(sc, (), units, tasks = 16)((_, us) => us.toArray)
      assert(perTask.length == 16)
      assert(perTask.flatten.sorted.toSeq == (0 until units))
    }
  }

  for (units <- Seq(0, 5, 10007)) {
    test(s"rows emits every unit exactly once, on every evaluation: $units units") {
      val data = Array.range(0, units).map(_ * 3L)
      val rows = SeedRunner.rows(sc, data, units, tasks = 16)((d, us) => us.map(u => (u, d(u))))
      assert(rows.getNumPartitions == 16)
      val first = rows.collect().sorted.toSeq
      assert(first == (0 until units).map(u => (u, u * 3L)))
      assert(rows.collect().sorted.toSeq == first)
    }
  }

  test("tasks = 0 means 4× default parallelism") {
    val perTask = SeedRunner.run(sc, (), 100, tasks = 0)((_, us) => us.size)
    assert(perTask.length == 4 * sc.defaultParallelism)
    assert(perTask.sum == 100)
  }

  test("every task reads the broadcast data") {
    val data = Array.range(0, 50)
    val sums = SeedRunner.run(sc, data, data.length, tasks = 3)((d, us) => us.map(d(_).toLong).sum)
    assert(sums.sum == data.map(_.toLong).sum)
  }

  test("a failing unit reaches the caller, and the broadcast is destroyed") {
    val bc = sc.broadcast(Array(1, 2, 3))
    val e = intercept[SparkException] {
      SeedRunner.runOn(sc, bc, 100, 4) { (d, us) =>
        us.map(u => if (u == 42) throw new IllegalStateException("unit 42 failed") else d(0)).sum
      }
    }
    assert(e.getMessage.contains("unit 42 failed"))
    intercept[SparkException](bc.value)
  }
}
