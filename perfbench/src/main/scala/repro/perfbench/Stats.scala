package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}

/** The benchmark's own arithmetic. It is kept free of Spark so that the
  * tests in `perfbench/src/test` pin every rule down.
  */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A tail figure: the sample at `percentile`, with `beyond` of the
    * `samples` samples above it.
    */
  final case class Tail(percentile: Double, value: Double, samples: Int, beyond: Int)

  /** The highest percentile that has at least `beyond` samples beyond it.
    * Of n sorted samples that is the (n − beyond)-th smallest, percentile
    * 100·(n − beyond)/n. None when there are not more than `beyond` samples.
    */
  def tail(xs: Seq[Double], beyond: Int): Option[Tail] = {
    require(beyond >= 0)
    val n = xs.length
    if (n <= beyond) None
    else {
      val k = n - beyond
      Some(Tail(100.0 * k / n, xs.sorted.apply(k - 1), n, beyond))
    }
  }

  /** `job_tail_s`: the highest percentile with ten samples beyond it, but
    * never below the 75th. A run of fewer than forty jobs, where that
    * percentile would fall below the 75th, keeps a quarter of its jobs
    * (rounded down) beyond it instead, so one slow job does not set it.
    */
  def jobTail(xs: Seq[Double]): Tail = tail(xs, math.min(10, xs.length / 4)).get

  /** Max ÷ median task run time. Spark reports run time in whole
    * milliseconds, so a median below 1 ms counts as 1 ms.
    */
  def taskSkew(runTimesMs: Seq[Double]): Double =
    if (runTimesMs.isEmpty) 0.0 else runTimesMs.max / math.max(1.0, median(runTimesMs))

  /** Core-seconds in which no task ran: wall × cores − Σ task run time. */
  def idleCoreSeconds(wallS: Double, cores: Int, taskRunS: Double): Double =
    wallS * cores - taskRunS

  /** Share of attempted jobs that threw or returned a wrong count. */
  def failedFrac(failed: Int, attempted: Int): Double = {
    require(attempted > 0 && failed >= 0 && failed <= attempted)
    failed.toDouble / attempted
  }

  /** One closed time interval of a span, in nanoseconds. */
  final case class Interval(id: Long, parent: Long, startNs: Long, endNs: Long)

  /** Self time of every span in seconds: its duration minus the part of its
    * interval that its children's intervals cover (overlaps counted once).
    */
  def selfSeconds(spans: Seq[Interval]): Map[Long, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = 0L; var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }
}

/** Outcome of the jobs of one run: each attempt is timed and its count or
  * exception kept, to be checked against the reference count once that is
  * known. A job that throws counts as failed.
  */
final class JobLog {
  private val secs = ArrayBuffer.empty[Double]
  private val outcomes = ArrayBuffer.empty[Try[Long]]

  /** Runs one job, returning its wall time in seconds. */
  def attempt(job: => Long): Double = {
    val t0 = System.nanoTime()
    val outcome = Try(job)
    val s = (System.nanoTime() - t0) / 1e9
    secs += s
    outcomes += outcome
    s
  }

  def attempted: Int = secs.length
  def seconds: Seq[Double] = secs.toSeq

  /** One message for each job that threw or returned a count other than
    * `reference`, in the order the jobs ran.
    */
  def errors(reference: Long): Seq[String] = outcomes.toSeq.collect {
    case Failure(e) => e.toString
    case Success(c) if c != reference => s"count $c != reference $reference"
  }
}
