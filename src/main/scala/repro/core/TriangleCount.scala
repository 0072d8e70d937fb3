package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{LocalGraph, Reorder, SetGraph, SparkGraph}
import repro.setalg.SetFactory

/** Triangle counting — the 3-clique base case of Alg. 7, kept as its own
  * module because the paper treats it as a separately-studied problem. Both
  * counts are set algebra on the collected CSR (`tc += |N(v) ∩ N(w)|`,
  * Fig. 2 stage 5) and DuckDB-verifiable via `Oracle`.
  */
object TriangleCount {

  /** Total number of triangles T: [[KClique]] at k = 3 under the DEG order
    * (§4.1.3), which counts each triangle once, at its lowest-ranked apex.
    */
  def count(g: SparkGraph): Long = KClique.run(g, 3, Reorder.DegOrder).cliques

  /** t(v) = ½ Σ_{u∈N(v)} |N(u) ∩ N(v)|, the triangles on each vertex v. */
  def perVertexLocal(spark: SparkSession, local: LocalGraph): Array[Long] =
    SeedRunner.byUnit(SeedRunner.run(spark.sparkContext, new SetGraph(local, SetFactory.sorted), local.n, 0) {
      (sg, vs) => vs.map { v =>
        val nv = sg.neighbors(v)
        val c = nv.cursor
        var t = 0L
        while (c.hasNext) t += sg.neighbors(c.next()).intersectCount(nv)
        t / 2
      }.toArray
    })

  /** (v, triangles) for each vertex on a triangle — the paper's T-skew
    * statistic (Table 7) and the "triangle count ranking" (Table 4).
    */
  def perVertex(g: SparkGraph): DataFrame = {
    import g.spark.implicits._
    val tri = perVertexLocal(g.spark, g.toLocal)
    tri.indices.filter(tri(_) > 0).map(v => (v, tri(v))).toDF("v", "triangles")
  }
}
