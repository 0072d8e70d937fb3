package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def ramp(n: Int): Seq[Double] = scala.util.Random.shuffle((1 to n).map(_.toDouble))

  test("tail is the highest percentile with the asked number of samples beyond it") {
    assert(Stats.tail(ramp(20), 10) == Some(Stats.Tail(50.0, 10.0, 20, 10)))
    assert(Stats.tail(ramp(100), 10) == Some(Stats.Tail(90.0, 90.0, 100, 10)))
    assert(Stats.tail(ramp(11), 10).map(_.value) == Some(1.0))
    assert(Stats.tail(ramp(10), 10).isEmpty)
    assert(Stats.tail(ramp(7), 0) == Some(Stats.Tail(100.0, 7.0, 7, 0)))
  }

  test("job tail keeps ten jobs beyond it, or a quarter of them below forty jobs") {
    assert(Stats.jobTail(ramp(100)) == Stats.Tail(90.0, 90.0, 100, 10))
    assert(Stats.jobTail(ramp(40)) == Stats.Tail(75.0, 30.0, 40, 10))
    assert(Stats.jobTail(ramp(20)) == Stats.Tail(75.0, 15.0, 20, 5))
    assert(Stats.jobTail(ramp(6)) == Stats.Tail(500.0 / 6, 5.0, 6, 1))
    assert(Stats.jobTail(Seq(2.5)) == Stats.Tail(100.0, 2.5, 1, 0))
  }

  test("median averages the two middle samples of an even count") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("task skew is max over median task run time, the median at least 1 ms") {
    assert(Stats.taskSkew(Seq(10.0, 20.0, 30.0, 400.0)) == 16.0)
    assert(Stats.taskSkew(Seq(0.0, 0.0, 0.0, 50.0)) == 50.0)
    assert(Stats.taskSkew(Seq(7.0)) == 1.0)
    assert(Stats.taskSkew(Nil) == 0.0)
  }

  test("idle core time is wall times cores minus the summed task run time") {
    assert(Stats.idleCoreSeconds(wallS = 2.0, cores = 4, taskRunS = 5.0) == 3.0)
    assert(Stats.idleCoreSeconds(wallS = 1.5, cores = 4, taskRunS = 6.0) == 0.0)
  }

  test("self time subtracts the union of the children, clipped to the parent") {
    val s = 1000000000L
    val spans = Seq(
      Stats.Interval(1, 0, 0, 100 * s),
      Stats.Interval(2, 1, 10 * s, 30 * s),
      Stats.Interval(3, 1, 20 * s, 50 * s),  // overlaps span 2: counted once
      Stats.Interval(4, 1, 90 * s, 120 * s), // runs past its parent: clipped
      Stats.Interval(5, 3, 25 * s, 45 * s),  // grandchild: only span 3 loses it
    )
    val self = Stats.selfSeconds(spans)
    assert(self(1) == 100 - 40 - 10)
    assert(self(2) == 20)
    assert(self(3) == 30 - 20)
    assert(self(4) == 30)
    assert(self(5) == 20)
  }

  test("failed jobs are counted against attempts, a throwing job included") {
    val log = new JobLog
    log.attempt(5L)
    log.attempt(4L)
    log.attempt(throw new RuntimeException("lost executor"))
    log.attempt(5L)
    val errors = log.errors(reference = 5)
    assert(log.attempted == 4)
    assert(errors == Seq("count 4 != reference 5", "java.lang.RuntimeException: lost executor"))
    assert(Stats.failedFrac(errors.length, log.attempted) == 0.5)
    assert(log.errors(reference = 4).length == 3)
    assert(log.seconds.length == 4)
  }

  test("spans record their parent, job and notes, and report the open span") {
    val switched = scala.collection.mutable.ArrayBuffer.empty[Long]
    val t = new Tracer("w", switched += _)
    t.job = 3
    t.span("job") {
      t.span("core.mine")(t.note("patterns", 7))
      t.span("graph.to_local")(())
    }
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(byName("job").parent == 0)
    assert(byName("core.mine").parent == byName("job").id)
    assert(byName("graph.to_local").parent == byName("job").id)
    assert(byName("core.mine").notes == Map("patterns" -> 7.0))
    assert(t.spans.forall(_.job == 3))
    val (job, mine, local) = (byName("job").id, byName("core.mine").id, byName("graph.to_local").id)
    assert(switched.toSeq == Seq(job, mine, job, local, job, 0L))
  }
}
