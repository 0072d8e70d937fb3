package repro.perfbench

import scala.collection.mutable

/** A finished span: one call into a layer, timed from the benchmark's side.
  * `parent` is 0 for a root span; `job` is the timed job's index, or -1 for
  * a probe outside any job.
  */
final case class Span(id: Long, parent: Long, name: String, workload: String, job: Int,
                      startNs: Long, endNs: Long, notes: Map[String, Double]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory. `onSwitch` is told the innermost open span's id
  * (0 when none is open) each time it changes, so Spark work can be
  * attributed to the span that submitted it.
  */
final class Tracer(workload: String, onSwitch: Long => Unit = _ => ()) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Long, mutable.Map[String, Double])] = Nil
  private var nextId = 1L
  /** Index of the job that spans now opened belong to. */
  var job: Int = -1

  def span[T](name: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.fold(0L)(_._1)
    val notes = mutable.Map.empty[String, Double]
    open = (id, notes) :: open
    onSwitch(id)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      onSwitch(parent)
      done += Span(id, parent, name, workload, job, t0, t1, notes.toMap)
    }
  }

  /** Attaches a count to the innermost open span. */
  def note(key: String, value: Double): Unit = open.head._2(key) = value

  def spans: Seq[Span] = done.toSeq
}
