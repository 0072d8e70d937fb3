package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.graph.{LocalGraph, SparkGraph}
import scala.reflect.ClassTag

/** Vertex similarity (paper §6.5, Table 4) — the seven GMS measures, all
  * functions of |N(u) ∩ N(v)| (common neighbours), degrees and
  * per-common-neighbour weights. The pairs come from [[Wedges]] rows over
  * the collected CSR, in Spark tasks that emit them ([[SeedRunner.rows]]);
  * no pair passes through the driver. Every measure is DuckDB-checkable
  * via `Oracle`.
  */
object Similarity {

  sealed trait Measure { def name: String }
  case object CommonNeighbors        extends Measure { val name = "common" }
  case object Jaccard                extends Measure { val name = "jaccard" }
  case object Overlap                extends Measure { val name = "overlap" }
  case object AdamicAdar             extends Measure { val name = "adamic_adar" }
  case object ResourceAllocation     extends Measure { val name = "resource_alloc" }
  case object TotalNeighbors         extends Measure { val name = "total" }
  case object PreferentialAttachment extends Measure { val name = "pref_attach" }

  def allMeasures: Seq[Measure] = Seq(CommonNeighbors, Jaccard, Overlap, AdamicAdar,
    ResourceAllocation, TotalNeighbors, PreferentialAttachment)

  /** One task's pair accumulator: Gustavson's row-by-row sparse product
    * A·A on the CSR `g`, with dense per-vertex sums and a list of the
    * columns a row touched, so a row costs only its wedges.
    */
  private[core] final class Wedges(val g: LocalGraph) {
    val cn = new Array[Int](g.n)
    val aa = new Array[Double](g.n) // Σ_w 1/ln(deg w)
    val ra = new Array[Double](g.n) // Σ_w 1/deg w
    val touched = new Array[Int](g.n) // the columns of the last row: touched(0 until size)
    var size = 0

    /** Row u over the columns v ≠ u above `above`: the common neighbours w
      * of u and v, counted and weighted in ascending w.
      */
    def row(u: Int, above: Int): Unit = {
      for (k <- 0 until size) { val v = touched(k); cn(v) = 0; aa(v) = 0.0; ra(v) = 0.0 }
      size = 0
      for (i <- g.offsets(u) until g.offsets(u + 1)) {
        val w = g.adj(i); val wAa = 1.0 / math.log(g.degree(w)); val wRa = 1.0 / g.degree(w)
        var j = g.offsets(w + 1) - 1
        while (j >= g.offsets(w) && g.adj(j) > above) {
          val v = g.adj(j)
          if (v != u) {
            if (cn(v) == 0) { touched(size) = v; size += 1 }
            cn(v) += 1; aa(v) += wAa; ra(v) += wRa
          }
          j -= 1
        }
      }
    }

    /** The score of (u, v) under `m` after [[row]] u; 0.0 under every
      * measure when u and v share no neighbour.
      */
    def score(m: Measure, u: Int, v: Int): Double = {
      val c = cn(v); val du = g.degree(u); val dv = g.degree(v)
      if (c == 0) 0.0
      else m match {
        case CommonNeighbors        => c.toDouble
        case Jaccard                => c.toDouble / (du + dv - c)
        case Overlap                => c.toDouble / math.min(du, dv)
        case AdamicAdar             => aa(v)
        case ResourceAllocation     => ra(v)
        case TotalNeighbors         => (du + dv - c).toDouble
        case PreferentialAttachment => du.toDouble * dv
      }
    }
  }

  /** `f(acc, u, v)` in the tasks for every u < v that share a neighbour,
    * or, with `edges`, for every edge u < v.
    */
  private[core] def pairs[R: ClassTag](g: SparkGraph, edges: Boolean)(f: (Wedges, Int, Int) => R): RDD[R] = {
    val local = g.toLocal
    SeedRunner.rows(g.spark.sparkContext, local, local.n, 0) { (lg, seeds) =>
      val acc = new Wedges(lg)
      seeds.flatMap { u =>
        acc.row(u, u)
        (if (edges) lg.neighbors(u).filter(_ > u) else acc.touched.take(acc.size)).map(f(acc, u, _))
      }
    }
  }

  /** (u, v, cn, w_aa, w_ra) for all u < v with ≥1 common neighbor:
    * cn = |N(u) ∩ N(v)|, w_aa = Σ_w 1/ln(deg w), w_ra = Σ_w 1/deg w.
    */
  def commonNeighborStats(g: SparkGraph): DataFrame = {
    import g.spark.implicits._
    pairs(g, edges = false)((acc, u, v) => (u, v, acc.cn(v).toLong, acc.aa(v), acc.ra(v)))
      .toDF("u", "v", "cn", "w_aa", "w_ra")
  }

  /** Similarity scores (u, v, score) for every pair with ≥1 common neighbor,
    * u < v, under `measure`. For [[PreferentialAttachment]] and
    * [[TotalNeighbors]] the score is still restricted to these pairs (the
    * candidate universe of link prediction §6.7).
    */
  def scores(g: SparkGraph, measure: Measure): DataFrame = {
    import g.spark.implicits._
    pairs(g, edges = false)((acc, u, v) => (u, v, acc.score(measure, u, v))).toDF("u", "v", "score")
  }

  /** Scores restricted to *adjacent* pairs — the input to Jarvis-Patrick. */
  def edgeScores(g: SparkGraph, measure: Measure): DataFrame = {
    import g.spark.implicits._
    pairs(g, edges = true)((acc, u, v) => (u, v, acc.score(measure, u, v))).toDF("u", "v", "score")
  }
}
