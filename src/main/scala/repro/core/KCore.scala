package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.{LocalGraph, Reorder, SparkGraph}

/** k-core decomposition (GMS §6.1 / Table 4 "Dense Subgraph Discovery").
  *
  * A k-core is a maximal subgraph whose vertices all have degree ≥ k inside
  * it (as in the peeling literature we keep the union of connected k-cores).
  * Everything here derives from the exact coreness that Matula-Beck
  * min-degree peeling ([[Reorder.degeneracyLocal]]) computes on the CSR:
  * v is in the k-core iff coreness(v) ≥ k.
  */
object KCore {

  /** Vertices `v` of the k-core: [[kCoreLocal]] on the collected CSR. */
  def kCore(g: SparkGraph, k: Int): DataFrame = {
    import g.spark.implicits._
    kCoreLocal(g.toLocal, k).toSeq.toDF("v")
  }

  /** Exact coreness per vertex (driver-side peeling); degeneracy = max. */
  def corenessLocal(g: LocalGraph): (Array[Int], Int) = {
    val (_, coreness, degeneracy) = Reorder.degeneracyLocal(g)
    (coreness, degeneracy)
  }

  /** Degeneracy d of the graph: the smallest d with every subgraph having a
    * vertex of degree ≤ d.
    */
  def degeneracy(g: LocalGraph): Int = corenessLocal(g)._2

  /** k-core members in ascending ID order: `{v : degree(v) > 0 ∧
    * coreness(v) ≥ k}`. The degree term only matters for k ≤ 0, where it
    * leaves out isolated vertices.
    */
  def kCoreLocal(g: LocalGraph, k: Int): Array[Int] = {
    val (coreness, _) = corenessLocal(g)
    (0 until g.n).filter(v => g.degree(v) > 0 && coreness(v) >= k).toArray
  }
}
