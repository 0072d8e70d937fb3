package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Engine counters of the Spark work one span submitted. */
final class SparkCounters {
  var jobs = 0
  var tasks = 0
  var cpuNs = 0L
  var runMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  val taskRunMs = mutable.ArrayBuffer.empty[Double]

  def cpuSeconds: Double = cpuNs / 1e9
  def runSeconds: Double = runMs / 1e3
  def gcSeconds: Double = gcMs / 1e3
  def skew: Double = Stats.taskSkew(taskRunMs.toSeq)
}

/** Attributes every Spark job, and the tasks of its stages, to the span that
  * was innermost on the submitting thread: [[bind]] stores the span id in a
  * Spark local property, which each job-start event carries.
  */
final class TaskCollector(sc: SparkContext) extends SparkListener {
  private val SpanKey = "perfbench.span"
  private val bySpan = mutable.Map.empty[Long, SparkCounters]
  private val stageSpan = mutable.Map.empty[Int, Long]
  private var jobsStarted, jobsEnded, tasksStarted, tasksEnded = 0L

  sc.addSparkListener(this)

  /** Marks the calling thread's next Spark jobs as the work of `span`. */
  def bind(span: Long): Unit =
    sc.setLocalProperty(SpanKey, if (span == 0L) null else span.toString)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobsStarted += 1
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).fold(0L)(_.toLong)
    e.stageIds.foreach(stageSpan(_) = span)
    counters(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobsEnded += 1
    notifyAll()
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = synchronized { tasksStarted += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasksEnded += 1
    val c = counters(stageSpan.getOrElse(e.stageId, 0L))
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.cpuNs += m.executorCpuTime
      c.runMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      c.taskRunMs += m.executorRunTime.toDouble
    }
    notifyAll()
  }

  private def counters(span: Long): SparkCounters = bySpan.getOrElseUpdate(span, new SparkCounters)

  /** Counters of `span`, read only once every event posted so far has been
    * delivered, every started job has ended and every started task's end
    * event has arrived.
    */
  def of(span: Long): SparkCounters = {
    ListenerBus.drain(sc)
    synchronized {
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (jobsStarted != jobsEnded || tasksStarted != tasksEnded) {
        val left = (deadline - System.nanoTime()) / 1000000
        if (left <= 0) throw new IllegalStateException(
          s"Spark events incomplete: jobs $jobsEnded/$jobsStarted ended, tasks $tasksEnded/$tasksStarted ended")
        wait(left)
      }
      counters(span)
    }
  }
}
