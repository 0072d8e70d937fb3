package repro

import org.apache.spark.repro.ListenerBus
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or, when that is unset, to half of physical memory
  * clamped to 2-8 GB.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The ids of the Spark jobs `body` submits, under a job group of its own. */
  def jobs(group: String)(body: => Any): Seq[Int] = {
    val sc = spark.sparkContext
    sc.setJobGroup(s"$suiteName: $group", group)
    try body finally sc.clearJobGroup()
    ListenerBus.drain(sc)
    sc.statusTracker.getJobIdsForGroup(s"$suiteName: $group").toSeq
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    // One line in the test output records the heap setting, master and
    // parallelism of the run.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
