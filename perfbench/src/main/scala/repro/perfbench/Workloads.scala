package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{KClique, MaximalCliques, SubgraphIso}
import repro.graph.{GraphGen, LocalGraph, Reorder, SparkGraph}
import repro.setalg.SetFactory

/** One workload's inputs, generated from the seed and materialised. */
trait Prepared {
  /** Input sizes, for the printed report. */
  def sizes: String
  /** Releases cached Spark data, so repeated set-ups do not pile up. */
  def release(): Unit
  /** The pattern count through a path independent of the timed job. */
  def reference(): Long
  /** One timed job: the kernel's public entry point, as a user calls it. */
  def job(): Long
  /** The same job with a span around each call into a layer. */
  def tracedJob(t: Tracer): Long
  /** Layer probes outside any job: set construction and one-thread mining,
    * plus the collect and orient steps that the job runs inside the kernel.
    */
  def probes(t: Tracer): Unit
}

/** A benchmark workload. All randomness derives from the run's seed; seed 0
  * reproduces the generators' own default seeds.
  */
sealed trait Workload {
  def name: String
  /** Patterns one job mines at seed 0. */
  def seed0Count: Long
  def setup(spark: SparkSession, seed: Long, t: Tracer): Prepared

  protected def derive(seed: Long, base: Long): Long = base + 1000L * seed
}

object Workload {
  val all: Seq[Workload] = Seq(BkSocial, KCliquePlanted, SiLabeled)

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload '$n'; have ${all.map(_.name).mkString(", ")}"))

  private[perfbench] def generate(t: Tracer)(g: => SparkGraph): SparkGraph =
    t.span("graph.generate") { val built = g; built.m; built }

  private[perfbench] def adgRank(t: Tracer, g: SparkGraph, eps: Double): Array[Int] =
    t.span("graph.reorder") {
      val peel = Reorder.adg(g, eps)
      t.note("rounds", peel.iterations.toDouble)
      Reorder.rankArray(peel.order, g.n)
    }

  /** The set-up's reorder runs in a fresh JVM, and no job runs the
    * reorder's Spark queries, so they warm up only here: the first two of
    * these calls are still slower than the rest. With four, the median of
    * the five `graph.reorder` spans is a warm one.
    */
  private[perfbench] def reorderProbes(t: Tracer, g: SparkGraph, eps: Double): Unit =
    for (_ <- 1 to 4) adgRank(t, g, eps)

  private[perfbench] def toLocal(t: Tracer, g: SparkGraph): LocalGraph =
    t.span("graph.to_local") { val l = g.toLocal; t.note("csr_bytes", l.csrBytes.toDouble); l }

  private[perfbench] def mine(t: Tracer)(body: => Long): Long =
    t.span("core.mine") { val c = body; t.note("patterns", c.toDouble); c }

  private[perfbench] def buildSets(t: Tracer, g: LocalGraph, f: SetFactory): Unit =
    t.span("setalg.build") {
      t.note("bytes", g.neighborhoods(f).map(_.storageBytes).sum.toDouble)
    }
}

import Workload._

/** BK-GMS-ADG on a skewed power-law graph: the paper's headline maximal
  * clique use case, mining memoised roaring sets. The ADG order is
  * preprocessing, computed once in set-up like k-clique's: the reorder's
  * two dozen small Spark jobs are bound by scheduling latency, which on a
  * shared host varies too much from run to run to time in every job.
  */
object BkSocial extends Workload {
  val name = "bk-social"
  val seed0Count = 303631L
  private val eps = 0.1
  private val variant = MaximalCliques.BkGmsAdg(eps)
  private val scale = 12
  private val edgeFactor = 40

  def setup(spark: SparkSession, seed: Long, t: Tracer): Prepared = {
    val g = generate(t)(GraphGen.rmat(spark, scale, edgeFactor, seed = derive(seed, 11)))
    val rank = adgRank(t, g, eps)
    def mineFrom(local: LocalGraph): Long = MaximalCliques.mineLocal(g.spark, local, rank, variant).cliques
    new Prepared {
      def sizes = s"R-MAT scale $scale, edge factor $edgeFactor: n=${g.n} m=${g.m}"
      def release(): Unit = g.edges.unpersist(blocking = true)
      def reference(): Long = {
        val local = g.toLocal
        MaximalCliques.listLocal(local, Reorder.degeneracyLocal(local)._1, SetFactory.sorted).size.toLong
      }
      // The steps of MaximalCliques.run after its reorder.
      def job(): Long = mineFrom(g.toLocal)
      def tracedJob(t: Tracer): Long = t.span("job") {
        val local = toLocal(t, g)
        mine(t)(mineFrom(local))
      }
      def probes(t: Tracer): Unit = {
        reorderProbes(t, g, eps)
        val local = g.toLocal
        // BK does not orient; the probe prices the step on this graph.
        t.span("graph.orient")(local.orient(rank))
        buildSets(t, local, variant.sets)
        t.span("core.mine_1t")(MaximalCliques.listLocal(local, rank, variant.sets).size)
      }
    }
  }
}

/** Edge-parallel 7-clique counting on a clique-rich graph: no reorder in the
  * job (the ADG order is preprocessing, done once in set-up), sets rebuilt
  * from the CSR at every recursion step, and heavily skewed tasks.
  */
object KCliquePlanted extends Workload {
  val name = "kclique-planted"
  val seed0Count = 35497344L
  private val k = 7
  private val factory = SetFactory.sorted
  private val n = 6000
  private val cliques = 80

  def setup(spark: SparkSession, seed: Long, t: Tracer): Prepared = {
    val g = generate(t)(GraphGen.plantedCliques(spark, n, bgEdges = 100000, cliques,
      sizes = Seq(8, 12, 16, 22, 30), seed = derive(seed, 17)))
    val rank = adgRank(t, g, 0.1)
    def countFrom(oriented: LocalGraph, u: Int): Long = KClique.countFromVertex(oriented, factory, k, u)
    def countOneThread(oriented: LocalGraph): Long = (0 until oriented.n).iterator.map(countFrom(oriented, _)).sum
    // The reference runs the same loop on the driver's fork-join pool.
    def countDriverThreads(oriented: LocalGraph): Long =
      java.util.stream.IntStream.range(0, oriented.n).parallel().mapToLong(countFrom(oriented, _)).sum()
    new Prepared {
      def sizes = s"planted cliques ($cliques of sizes 8-30) on ER background: n=${g.n} m=${g.m}, k=$k"
      def release(): Unit = g.edges.unpersist(blocking = true)
      def reference(): Long = countDriverThreads(g.toLocal.orient(rank))
      def job(): Long = KClique.count(g, k, rank, KClique.EdgeParallel, factory)
      def tracedJob(t: Tracer): Long =
        t.span("job")(mine(t)(KClique.count(g, k, rank, KClique.EdgeParallel, factory)))
      def probes(t: Tracer): Unit = {
        reorderProbes(t, g, 0.1)
        val local = toLocal(t, g)
        val oriented = t.span("graph.orient")(local.orient(rank))
        buildSets(t, oriented, factory)
        t.span("core.mine_1t")(countOneThread(oriented))
      }
    }
  }
}

/** SI-Steal embedding counting of a hub-rooted query in a labeled ER
  * target: no reorder, no orientation, no memoised sets; candidate
  * intersections and edge checks spread over many small, skewed units.
  */
object SiLabeled extends Workload {
  val name = "si-labeled"
  val seed0Count = 129118176L
  private val queryVertices = 7

  def setup(spark: SparkSession, seed: Long, t: Tracer): Prepared = {
    val s = derive(seed, 95)
    val rnd = new scala.util.Random(s)
    val target = GraphGen.erLocal(n = 1200, p = 0.02, seed = s)
    val g = generate(t)(SparkGraph.fromLocal(spark, target))
    val (labels, pattern) = t.span("labels_and_query") {
      val labels = Array.fill(target.n)(rnd.nextInt(3))
      // The BFS tree of a sample rooted at the hub, labels inherited from the
      // target, so the query is known to occur. The tree, not the induced
      // subgraph, keeps the query's shape the same for every seed: an extra
      // edge among the sampled vertices would cut the work fifty-fold.
      val start = (0 until target.n).maxBy(target.degree)
      val seen = scala.collection.mutable.LinkedHashMap(start -> 0)
      val tree = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      val queue = scala.collection.mutable.Queue(start)
      while (seen.size < queryVertices && queue.nonEmpty) {
        val v = queue.dequeue()
        rnd.shuffle(target.neighbors(v).toSeq).foreach { w =>
          if (seen.size < queryVertices && !seen.contains(w)) {
            seen(w) = seen.size; tree += ((seen(v), seen(w))); queue += w
          }
        }
      }
      val query = LocalGraph.fromEdges(seen.size, tree)
      (labels, SubgraphIso.Pattern(query, seen.keys.toArray.map(labels)))
    }
    def count(variant: SubgraphIso.Variant, f: SetFactory, tasks: Int): Long =
      SubgraphIso.count(g, labels, pattern, induced = false, variant, f, tasks)
    new Prepared {
      def sizes = s"3-label ER target: n=${g.n} m=${g.m}; query: ${pattern.graph.n} vertices, ${pattern.graph.m} edges"
      def release(): Unit = g.edges.unpersist(blocking = true)
      def reference(): Long = count(SubgraphIso.Base, SetFactory.roaring, 0)
      def job(): Long = SubgraphIso.count(g, labels, pattern, induced = false)
      def tracedJob(t: Tracer): Long =
        t.span("job")(mine(t)(SubgraphIso.count(g, labels, pattern, induced = false)))
      def probes(t: Tracer): Unit = {
        val local = toLocal(t, g)
        buildSets(t, local, SetFactory.sorted)
        t.span("core.mine_1t")(count(SubgraphIso.WorkSteal, SetFactory.sorted, 1))
      }
    }
  }
}
