package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** Runs one workload of the benchmark in a closed loop with one client: the
  * next job starts only when the previous one has returned.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
  * }}}
  *
  * With `--trace 0` it times untraced jobs and reports the end-to-end
  * metrics. With `--trace 1` it runs the layer probes, times traced jobs,
  * and reports the per-layer metrics. The last line of
  * standard output is one JSON object with the result.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median, the mean of one set-up in
    * a fresh JVM and one after it. A third would cost as much as the timed
    * jobs of a run, and the run's time is bounded.
    */
  val SetupRepeats = 2

  /** Partitions of the generators' `spark.range`. Fixed, so that the inputs
    * depend on the seed alone and not on the number of cores.
    */
  val GeneratorPartitions = 4

  /** Untimed jobs before the measured ones. The first job in a fresh JVM
    * takes up to twice as long as a later one; jobs keep getting a little
    * faster for a while after that, which the median of the measured jobs
    * absorbs.
    */
  val WarmUpJobs = 2

  /** Empty spans timed to price one span in the traced run. */
  val OverheadSpans = 20000

  final case class Metric(name: String, value: Double, unit: String)

  private final case class Args(workload: Workload, seed: Long, seconds: Double,
                                trace: Boolean, spans: Option[String])

  private def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case v => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $v")
    }
    Args(Workload.byName(get("workload")), kv.getOrElse("seed", "0").toLong,
         get("seconds").toDouble, trace, kv.get("spans"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${args.workload.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      // The session settings of the repository's tests and bench suites.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.leafNodeDefaultParallelism", GeneratorPartitions.toString)
      .getOrCreate()
    val code =
      try {
        phase(s"workload ${args.workload.name}, seed ${args.seed}, local[$cores], " +
              s"${args.seconds} s per run, trace ${if (args.trace) 1 else 0}")
        if (args.trace) traced(spark, args, cores) else endToEnd(spark, args)
        0
      } catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  /** Prints a progress line stamped with the JVM's uptime. */
  private def phase(msg: String): Unit =
    println(f"[${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.1f s] $msg")

  /** Runs the untimed warm-up jobs; their counts are checked later. */
  private def warmUp(p: Prepared): JobLog = {
    val warm = new JobLog
    for (_ <- 1 to WarmUpJobs) warm.attempt(p.job())
    phase(s"${warm.attempted} warm-up jobs done")
    warm
  }

  /** Computes the reference count, after the measured jobs, and returns it
    * with every error found: a warm-up or measured job that threw or
    * returned another count, and at seed 0 a reference that differs from the
    * count recorded for the workload, which catches a change to the inputs.
    *
    * The reference's independent path runs the same kernels with other set
    * types or orders. Run before or beside the measured jobs, it could leave
    * the JIT's code for those kernels compiled for both, at a point that
    * differs from run to run.
    */
  private def checked(p: Prepared, args: Args, warm: JobLog, log: JobLog): (Long, Seq[String]) = {
    val ref = p.reference()
    phase(s"reference count $ref")
    val expected = args.workload.seed0Count
    val seed0 = if (args.seed == 0 && ref != expected) Seq(s"seed-0 reference $ref != recorded $expected") else Nil
    (ref, seed0 ++ warm.errors(ref).map(e => s"warm-up job: $e") ++ log.errors(ref))
  }

  private def endToEnd(spark: SparkSession, args: Args): Unit = {
    val w = args.workload
    val setups = (1 to SetupRepeats).map { i =>
      System.gc()
      val t0 = System.nanoTime()
      val p = w.setup(spark, args.seed, new Tracer(w.name))
      val s = (System.nanoTime() - t0) / 1e9
      if (i < SetupRepeats) p.release()
      (p, s)
    }
    val p = setups.last._1
    phase(p.sizes)
    val warm = warmUp(p)
    // Without a full collection here, the first set-up's garbage fills the
    // heap past G1's marking threshold, and the first ten or so timed jobs
    // run under a young collection every few hundred milliseconds until a
    // concurrent cycle happens to clear it.
    System.gc()
    val log = new JobLog
    val t0 = System.nanoTime()
    do log.attempt(p.job()) while ((System.nanoTime() - t0) / 1e9 < args.seconds)
    val heapMb = retainedHeapMb()
    phase(s"${log.attempted} timed jobs done")
    val (ref, errors) = checked(p, args, warm, log)
    val failed = log.errors(ref).length
    println(log.seconds.map(x => f"$x%.3f").mkString("job times (s): ", " ", ""))

    val jobS = Stats.median(log.seconds)
    val tail = Stats.jobTail(log.seconds)
    println(f"job_tail_s is percentile ${tail.percentile}%.1f of ${tail.samples} jobs, ${tail.beyond} beyond it")
    println(f"failed_frac = ${Stats.failedFrac(failed, log.attempted)} ($failed of ${log.attempted} jobs)")
    val metrics = Seq(
      Metric("setup_s", Stats.median(setups.map(_._2)), "s"),
      Metric("job_s", jobS, "s"),
      Metric("job_tail_s", tail.value, "s"),
      Metric("patterns_per_s", ref / jobS, "1/s"),
      Metric("heap_retained_mb", heapMb, "MB"),
    )
    report(metrics, log.attempted, failed, errors)
  }

  private def traced(spark: SparkSession, args: Args, cores: Int): Unit = {
    val w = args.workload
    val collector = new TaskCollector(spark.sparkContext)
    val t = new Tracer(w.name, collector.bind)
    val p = w.setup(spark, args.seed, t)
    phase(p.sizes)
    val warm = warmUp(p)
    p.probes(t)
    phase("probes done")
    System.gc()
    val log = new JobLog
    val t0 = System.nanoTime()
    do { t.job = log.attempted; log.attempt(p.tracedJob(t)) } while ((System.nanoTime() - t0) / 1e9 < args.seconds)
    t.job = -1
    phase(s"${log.attempted} traced jobs done")
    val (ref, errors) = checked(p, args, warm, log)

    val spans = t.spans
    val self = Stats.selfSeconds(spans.map(s => Stats.Interval(s.id, s.parent, s.startNs, s.endNs)))
    val spanNs = spanCostNs(w.name, collector)
    val spansPerJob = Stats.median(spans.filter(_.job >= 0).groupBy(_.job).values.map(_.length.toDouble).toSeq)
    val overheadS = spansPerJob * spanNs / 1e9
    val metrics = layerMetrics(spans, self, collector, cores) :+ Metric("trace.overhead_s", overheadS, "s")
    println("span                 count  median_s  median_self_s")
    spans.groupBy(_.name).toSeq.sortBy(_._1).foreach { case (name, ss) =>
      println(f"$name%-20s ${ss.length}%5d  ${Stats.median(ss.map(_.seconds))}%8.4f  " +
              f"${Stats.median(ss.map(s => self(s.id)))}%13.4f")
    }
    println(f"tracing overhead: $overheadS%.3e s per job ($spansPerJob%.0f spans of ${spanNs}%.0f ns each)")
    println(f"median traced job ${Stats.median(log.seconds)}%.4f s over ${log.attempted} jobs")
    args.spans.foreach(f => writeSpans(f, spans, self, collector))
    report(metrics, log.attempted, log.errors(ref).length, errors)
  }

  /** The cost of one span in nanoseconds: the median of five batches of
    * empty spans through a tracer bound to the collector, as the traced jobs'
    * spans are. A job's own time varies far more than its few spans cost, so
    * traced minus untraced job time cannot show that cost.
    */
  private def spanCostNs(workload: String, collector: TaskCollector): Double = {
    val t = new Tracer(workload, collector.bind)
    val batches = (1 to 5).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < OverheadSpans) { t.span("overhead")(t.note("n", i)); i += 1 }
      (System.nanoTime() - t0).toDouble / OverheadSpans
    }
    Stats.median(batches)
  }

  /** The per-layer metrics: medians over the spans of each layer. A layer
    * the workload does not run has no spans and reports no metric.
    */
  private def layerMetrics(spans: Seq[Span], self: Map[Long, Double], collector: TaskCollector,
                           cores: Int): Seq[Metric] = {
    val byName = spans.groupBy(_.name)
    def med(span: String, metric: String, unit: String)(f: Span => Double): Option[Metric] =
      byName.get(span).map(ss => Metric(metric, Stats.median(ss.map(f)), unit))
    def spark(span: String, metric: String, unit: String)(f: (Span, SparkCounters) => Double): Option[Metric] =
      med(span, metric, unit)(s => f(s, collector.of(s.id)))
    val mine = med("core.mine", "core.mine_s", "s")(_.seconds)
    val mine1t = med("core.mine_1t", "core.mine_1t_s", "s")(_.seconds)
    val speedup = for (m <- mine; m1 <- mine1t) yield Metric("core.parallel_speedup", m1.value / m.value, "x")
    Seq(
      med("graph.reorder", "graph.reorder_s", "s")(_.seconds),
      med("graph.reorder", "graph.reorder_rounds", "count")(_.notes("rounds")),
      spark("graph.reorder", "graph.reorder.spark_jobs", "count")((_, c) => c.jobs),
      spark("graph.reorder", "graph.reorder.cpu_util", "fraction")((s, c) => c.cpuSeconds / (s.seconds * cores)),
      med("graph.to_local", "graph.to_local_s", "s")(_.seconds),
      med("graph.to_local", "graph.csr_bytes", "bytes")(_.notes("csr_bytes")),
      med("graph.orient", "graph.orient_s", "s")(_.seconds),
      med("setalg.build", "setalg.build_s", "s")(_.seconds),
      med("setalg.build", "setalg.bytes", "bytes")(_.notes("bytes")),
      mine,
      med("core.mine", "core.mine_patterns_per_s", "1/s")(s => s.notes("patterns") / s.seconds),
      mine1t,
      speedup,
      spark("core.mine", "core.mine.tasks", "count")((_, c) => c.tasks),
      spark("core.mine", "core.mine.cpu_s", "s")((_, c) => c.cpuSeconds),
      spark("core.mine", "core.mine.task_run_s", "s")((_, c) => c.runSeconds),
      // GC pauses are rare in a span, so the median would mostly read 0.
      byName.get("core.mine").map(ss =>
        Metric("core.mine.gc_s", ss.map(s => collector.of(s.id).gcSeconds).sum / ss.length, "s")),
      spark("core.mine", "core.mine.idle_core_s", "s")(
        (s, c) => Stats.idleCoreSeconds(s.seconds, cores, c.runSeconds)),
      spark("core.mine", "core.mine.task_skew", "ratio")((_, c) => c.skew),
      spark("core.mine", "core.mine.shuffle_write_bytes", "bytes")((_, c) => c.shuffleWriteBytes.toDouble),
      med("job", "trace.job_self_s", "s")(s => self(s.id)),
    ).flatten
  }

  /** Driver heap in use after full collections. In local mode the driver
    * is also the executor, so cached and memoised data shows here. Spark
    * frees broadcast and shuffle blocks from a cleaner thread only after a
    * collection has found them unreachable, so collections repeat, with a
    * pause for that thread, until one frees less than 1% of the heap in use.
    */
  private def retainedHeapMb(): Double = {
    val heap = ManagementFactory.getMemoryMXBean
    def collect(): Double = { System.gc(); heap.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0) }
    var prev = Double.MaxValue
    var cur = collect()
    var rounds = 1
    while (cur < 0.99 * prev && rounds < 10) {
      Thread.sleep(300)
      prev = cur
      cur = collect()
      rounds += 1
    }
    cur
  }

  private def json(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric $x")
    java.lang.Double.toString(x)
  }

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** Prints each metric and the JSON result: `attempted` and `failed` count
    * the measured jobs; any error, warm-up ones included, makes the result
    * incorrect.
    */
  private def report(metrics: Seq[Metric], attempted: Int, failed: Int, errors: Seq[String]): Unit = {
    metrics.foreach(m => println(f"${m.name}%-32s ${m.value}%16.6f ${m.unit}"))
    errors.foreach(e => println(s"FAILED: $e"))
    val body = metrics.map(m => s"${quote(m.name)}: {\"value\": ${json(m.value)}, \"unit\": ${quote(m.unit)}}")
    println(s"{\"correct\": ${errors.isEmpty}, \"attempted\": $attempted, " +
            s"\"failed\": $failed, \"metrics\": {${body.mkString(", ")}}}")
  }

  private def writeSpans(file: String, spans: Seq[Span], self: Map[Long, Double],
                         collector: TaskCollector): Unit = {
    val lines = ArrayBuffer.empty[String]
    spans.sortBy(_.startNs).foreach { s =>
      val c = collector.of(s.id)
      val notes = s.notes.toSeq.sortBy(_._1).map { case (k, v) => s"${quote(k)}: ${json(v)}" }
      lines += s"{\"id\": ${s.id}, \"parent\": ${s.parent}, \"name\": ${quote(s.name)}, " +
        s"\"workload\": ${quote(s.workload)}, \"job\": ${s.job}, \"start_ns\": ${s.startNs}, " +
        s"\"end_ns\": ${s.endNs}, \"self_s\": ${json(self(s.id))}, \"notes\": {${notes.mkString(", ")}}, " +
        s"\"spark\": {\"jobs\": ${c.jobs}, \"tasks\": ${c.tasks}, \"cpu_s\": ${json(c.cpuSeconds)}, " +
        s"\"task_run_s\": ${json(c.runSeconds)}, \"gc_s\": ${json(c.gcSeconds)}, " +
        s"\"shuffle_write_bytes\": ${c.shuffleWriteBytes}, \"task_skew\": ${json(c.skew)}}}"
    }
    val path = Paths.get(file)
    Option(path.getParent).foreach(Files.createDirectories(_))
    Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    println(s"spans written to $file")
  }
}
