package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph._
import repro.metrics.Metrics

/** Shared bits for the spark-submit entrypoints: session construction and
  * the named benchmark graphs (the synthetic Table-7 substitutes).
  */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()

  /** Named graphs; `scale` ∈ {test, bench} roughly SF 0.01 / 0.1. */
  def graph(spark: SparkSession, name: String, bench: Boolean): SparkGraph = {
    val f = if (bench) 1 else 4 // divide sizes at test scale
    name match {
      case "social"     => GraphGen.rmat(spark, scale = if (bench) 14 else 11, edgeFactor = 16)
      case "structural" => GraphGen.ringLattice(spark, n = 40000 / f, k = 12, rewireFrac = 0.05)
      case "cliques"    => GraphGen.plantedCliques(spark, n = 20000 / f, bgEdges = 80000 / f,
                                                   cliques = 400 / f, sizes = Seq(6, 8, 10, 14, 20))
      case "road"       => GraphGen.grid(spark, rows = 400 / f, cols = 400 / f)
      case "uniform"    => GraphGen.er(spark, n = 20000 / f, m = 200000 / f)
      case "web"        => GraphGen.rmat(spark, scale = if (bench) 13 else 10, edgeFactor = 8,
                                         a = 0.60, b = 0.19, c = 0.16, seed = 23)
      case other        => throw new IllegalArgumentException(s"unknown graph '$other'")
    }
  }

  val graphNames: Seq[String] = Seq("social", "structural", "cliques", "road", "uniform", "web")
}

/** spark-submit entrypoint for the Fig.-4 experiment: BK variants on a graph. */
object BkJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("cliques")
    val spark = Jobs.session(s"bk-$name")
    val g = Jobs.graph(spark, name, bench = args.length > 1 && args(1) == "bench")
    val rows = MaximalCliques.allVariants.map { v =>
      val r = MaximalCliques.run(g, v)
      Seq(v.name, r.cliques.toString, Metrics.f2(r.reorderSec), Metrics.f2(r.mineSec),
          Metrics.human(r.throughput))
    }
    Metrics.printTable(s"Maximal cliques on $name",
      Seq("variant", "cliques", "reorder_s", "mine_s", "cliques/s"), rows)
    spark.stop()
  }
}

/** spark-submit entrypoint for the Fig.-5/9 experiment: k-clique counting. */
object KCliqueJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("social")
    val k = if (args.length > 1) args(1).toInt else 4
    val spark = Jobs.session(s"kclique-$name-$k")
    val g = Jobs.graph(spark, name, bench = false)
    val rows = Seq(Reorder.DegOrder, Reorder.DgrOrder, Reorder.AdgOrder(0.1)).map { o =>
      val r = KClique.run(g, k, o)
      Seq(s"KC-${o.name}", r.cliques.toString, Metrics.f2(r.reorderSec),
          Metrics.f2(r.mineSec), Metrics.human(r.throughput))
    }
    Metrics.printTable(s"$k-cliques on $name",
      Seq("variant", "cliques", "reorder_s", "mine_s", "cliques/s"), rows)
    spark.stop()
  }
}

/** spark-submit entrypoint for the Fig.-7 experiment: subgraph isomorphism. */
object SiJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("si")
    val target = GraphGen.erLocal(n = 1000, p = 0.02, seed = 5)
    val rnd = new scala.util.Random(9)
    val labels = Array.fill(target.n)(rnd.nextInt(4))
    // Query = a BFS-sampled induced subgraph of the target (labels inherited),
    // so embeddings are guaranteed to exist.
    val qVerts = {
      val start = (0 until target.n).maxBy(target.degree)
      val seen = scala.collection.mutable.LinkedHashSet(start)
      val queue = scala.collection.mutable.Queue(start)
      while (seen.size < 6 && queue.nonEmpty) {
        val v = queue.dequeue()
        target.neighbors(v).foreach { w =>
          if (seen.size < 6 && !seen.contains(w)) { seen += w; queue += w }
        }
      }
      seen.toArray
    }
    val (qGraph, qIds) = target.inducedSubgraph(qVerts)
    val pat = SubgraphIso.Pattern(qGraph, qIds.map(labels))
    val rows = SubgraphIso.allVariants.map { v =>
      val (c, t) = Metrics.timed(SubgraphIso.countLocal(spark, target, labels, pat, induced = false, v))
      Seq(v.name, c.toString, Metrics.f2(t))
    }
    Metrics.printTable("Subgraph isomorphism variants",
      Seq("variant", "embeddings", "time_s"), rows)
    spark.stop()
  }
}

/** spark-submit entrypoint for Table 7: structural stats of every graph. */
object StatsJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("stats")
    val rows = Jobs.graphNames.map { n =>
      val s = GraphStats.compute(n, Jobs.graph(spark, n, bench = false))
      Seq(s.name, s.n.toString, s.m.toString, Metrics.f2(s.sparsity), s.maxDeg.toString,
          s.triangles.toString, Metrics.f2(s.triPerVertex), s.maxTriPerVertex.toString)
    }
    Metrics.printTable("Dataset structural features (Table 7 columns)",
      Seq("graph", "n", "m", "m/n", "maxDeg", "T", "T/n", "maxT"), rows)
    spark.stop()
  }
}
