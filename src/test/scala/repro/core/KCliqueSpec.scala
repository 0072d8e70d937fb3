package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, Reorder, SetGraph, SparkGraph}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import repro.setalg.{SetFactory, VertexSet}
import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

class KCliqueSpec extends SparkSpec {

  private def bruteCount(g: LocalGraph, k: Int): Long =
    (0 until g.n).combinations(k).count { c =>
      c.combinations(2).forall { case Seq(a, b) => g.hasEdge(a, b) }
    }.toLong

  private def choose(n: Int, k: Int): Long =
    if (k < 0 || k > n) 0 else (1 to k).foldLeft(1L)((acc, i) => acc * (n - k + i) / i)

  test("K_n contains C(n,k) k-cliques, every k") {
    for (n <- 4 to 7; k <- 2 to n) {
      val g = GraphGen.complete(spark, n)
      val rank = Array.range(0, n)
      assert(KClique.count(g, k, rank) == choose(n, k), s"n=$n k=$k")
    }
  }

  for (seed <- 1 to 3; k <- 3 to 5) {
    test(s"ER seed=$seed: k=$k count matches brute force") {
      val local = GraphGen.erLocal(25, 0.4, seed)
      val g = SparkGraph.fromLocal(spark, local)
      val rank = Array.range(0, local.n)
      assert(KClique.count(g, k, rank) == bruteCount(local, k))
    }
  }

  // n=14 leaves some of 64 tasks without a unit in both modes.
  private lazy val smallGraphs = Seq(GraphGen.erLocal(14, 0.5, 10), GraphGen.erLocal(24, 0.4, 11))
  private lazy val smallBrute = smallGraphs.map(l => (3 to 5).map(bruteCount(l, _)))

  for (f <- SetFactory.all; mode <- Seq(KClique.NodeParallel, KClique.EdgeParallel)) {
    test(s"${f.name} ${mode.name}: brute force agrees for tasks 1, 3 and 64") {
      for ((local, brute) <- smallGraphs.zip(smallBrute)) {
        val g = SparkGraph.fromLocal(spark, local)
        val (rank, _, _) = Reorder.degeneracyLocal(local)
        for (tasks <- Seq(1, 3, 64); k <- 3 to 5)
          assert(KClique.count(g, k, rank, mode, f, tasks) == brute(k - 3), s"n=${local.n} tasks=$tasks k=$k")
      }
    }
  }

  test("node-parallel and edge-parallel agree") {
    val local = GraphGen.erLocal(40, 0.3, 4)
    val g = SparkGraph.fromLocal(spark, local)
    val rank = Array.range(0, local.n)
    for (k <- 3 to 5) {
      val np = KClique.count(g, k, rank, KClique.NodeParallel)
      val ep = KClique.count(g, k, rank, KClique.EdgeParallel)
      assert(np == ep, s"k=$k")
    }
  }

  test("count is order-invariant (ID vs DEG vs DGR vs ADG)") {
    val local = GraphGen.erLocal(40, 0.3, 5)
    val g = SparkGraph.fromLocal(spark, local)
    val counts = Seq(Reorder.IdOrder, Reorder.DegOrder,
                     Reorder.DgrOrder, Reorder.AdgOrder(0.1)).map { o =>
      KClique.run(g, 4, o).cliques
    }
    assert(counts.distinct.size == 1)
  }

  test("count is representation-invariant") {
    val local = GraphGen.erLocal(35, 0.35, 6)
    val g = SparkGraph.fromLocal(spark, local)
    val (rank, _, _) = Reorder.degeneracyLocal(local)
    val counts = SetFactory.all.map(f => KClique.count(g, 4, rank, factory = f))
    assert(counts.distinct.size == 1)
  }

  test("k=2 returns the edge count") {
    val local = GraphGen.erLocal(30, 0.2, 7)
    val g = SparkGraph.fromLocal(spark, local)
    assert(KClique.count(g, 2, Array.range(0, 30)) == local.m)
  }

  test("triangle-free graphs have zero k≥3 cliques") {
    val g = GraphGen.grid(spark, 6, 6)
    val rank = Array.range(0, 36)
    assert(KClique.count(g, 3, rank) == 0)
    assert(KClique.count(g, 4, rank) == 0)
  }

  test("listLocal emits each clique exactly once, sorted") {
    val local = GraphGen.erLocal(20, 0.5, 8)
    val rank = Array.range(0, 20)
    val listed = KClique.listLocal(local, 3, rank)
    assert(listed.size == bruteCount(local, 3))
    assert(listed.distinct.size == listed.size)
    listed.foreach { c =>
      assert(c == c.sorted)
      assert(c.combinations(2).forall { case Seq(a, b) => local.hasEdge(a, b) })
    }
  }

  test("listing rejects k ≤ 0, naming k") {
    val local = GraphGen.erLocal(20, 0.5, 8)
    val rank = Array.range(0, 20)
    for (k <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](KClique.listLocal(local, k, rank))
      assert(e.getMessage.contains(s"k = $k"), e.getMessage)
      val s = intercept[IllegalArgumentException](KCliqueStar.listLocal(local, k, rank))
      assert(s.getMessage.contains(s"k = $k"), s.getMessage)
    }
  }

  test("run() reports timing breakdown and throughput") {
    val g = SparkGraph.fromLocal(spark, GraphGen.erLocal(30, 0.3, 9))
    val r = KClique.run(g, 3, Reorder.AdgOrder(0.1))
    assert(r.reorderSec > 0 && r.mineSec > 0)
    assert(r.throughput >= 0)
  }

  test("a short or repeated rank is rejected on the driver") {
    val local = GraphGen.erLocal(20, 0.3, 12)
    val g = SparkGraph.fromLocal(spark, local)
    for (rank <- Seq(Array.range(0, 19), new Array[Int](20))) {
      assertThrows[IllegalArgumentException](KClique.count(g, 3, rank))
      assertThrows[IllegalArgumentException](KClique.listLocal(local, 3, rank))
      assertThrows[IllegalArgumentException](KCliqueStar.count(g, 3, rank))
    }
  }

  test("planted K12 gives the expected spike in 6-cliques") {
    val g = GraphGen.plantedCliques(spark, n = 80, bgEdges = 0, cliques = 1, sizes = Seq(12))
    val rank = Array.range(0, 80)
    assert(KClique.count(g, 6, rank) == choose(12, 6))
  }

  test("no kernel writes into a shared neighbourhood set, every representation") {
    val local = GraphGen.erLocal(30, 0.45, 12)
    val g = SparkGraph.fromLocal(spark, local)
    val (rank, _, _) = Reorder.degeneracyLocal(local)
    val kernels = Seq[(String, SetFactory => Any)](
      "KClique.count NP" -> (f => KClique.count(g, 5, rank, KClique.NodeParallel, f, tasks = 1)),
      "KClique.count EP" -> (f => KClique.count(g, 5, rank, KClique.EdgeParallel, f, tasks = 1)),
      "KCliqueStar.count" -> (f => KCliqueStar.count(g, 4, rank, f, tasks = 1)),
      "KClique.listLocal" -> (f => KClique.listLocal(local, 5, rank, f)),
      "KCliqueStar.listLocal" -> (f => KCliqueStar.listLocal(local, 4, rank, f))) ++
      Seq(false, true).flatMap { sub =>
        Seq[(String, SetFactory => Any)](
          s"MaximalCliques.mineLocal sub=$sub" -> { f =>
            val bk = MaximalCliques.BkGmsDgr.copy(sets = f, subgraphOpt = sub)
            val r = MaximalCliques.mineLocal(spark, local, rank, bk, tasks = 1)
            (r.cliques, r.maxSize, r.sumSizes)
          },
          s"MaximalCliques.listLocal sub=$sub" -> (f => MaximalCliques.listLocal(local, rank, f, sub)))
      } ++
      SubgraphIso.allVariants.map { v =>
        // K4's last vertex in the search order has three mapped neighbours,
        // so its candidates take the in-place ∩ step.
        val k4 = SubgraphIso.Pattern(LocalGraph.complete(4), Array.fill(4)(0))
        s"SubgraphIso.count ${v.name}" -> ((f: SetFactory) =>
          SubgraphIso.count(g, Array.fill(local.n)(0), k4, induced = false, v, f, tasks = 1))
      }
    assert(KClique.count(g, 5, rank) > 0)
    for (f <- SetFactory.all; (name, run) <- kernels) {
      val rec = new RecordingFactory(f)
      assert(run(rec) == run(f), s"$name ${f.name}")
      assert(rec.built > 0, s"$name ${f.name}")
      assert(rec.changed.isEmpty, s"$name ${f.name} wrote into a neighbourhood")
    }
  }
}

/** A set factory that records every neighbourhood a SetGraph on it builds,
  * with its elements at build time. A neighbourhood is a set built from
  * sorted input while `SetGraph.neighbors` is on the calling thread's stack;
  * other sets built from sorted input, such as BK's seed sets P and X (which
  * BK mutates by design) and SI-Pre's candidate sets, are not recorded, nor
  * are the scratch sets from `empty`. The record lives in the JVM, so it also
  * sees the sets that Spark tasks build from a deserialised copy of the
  * factory.
  */
final class RecordingFactory(inner: SetFactory) extends SetFactory {
  private val id = RecordingFactory.ids.getAndIncrement()
  private def record = RecordingFactory.records.getOrElseUpdate(id, new ConcurrentLinkedQueue)

  override def name: String = inner.name

  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet = {
    val s = inner.fromSorted(sorted, universe)
    if (Thread.currentThread.getStackTrace.exists(e =>
          e.getClassName == classOf[SetGraph].getName && e.getMethodName == "neighbors"))
      record.add((s, s.toArray.toSeq))
    s
  }

  override def empty(universe: Int): VertexSet = inner.empty(universe)

  def built: Int = record.size

  /** The recorded sets whose elements are no longer those they were built with. */
  def changed: Seq[(Seq[Int], Seq[Int])] =
    record.asScala.toSeq.collect { case (s, was) if s.toArray.toSeq != was => (was, s.toArray.toSeq) }
}

object RecordingFactory {
  private val ids = new AtomicLong
  private val records = TrieMap.empty[Long, ConcurrentLinkedQueue[(VertexSet, Seq[Int])]]
}
