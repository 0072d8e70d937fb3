package repro.graph

import repro.core.TriangleCount

/** The Table-7 structural-feature columns, all read from one collected CSR:
  * n, m, sparsity m/n, maximum degree, triangle count T, average triangles
  * per vertex T/n, and the T-skew statistic (maximum triangles on a single
  * vertex, the paper's T̂).
  */
object GraphStats {

  final case class Stats(name: String, n: Int, m: Long, sparsity: Double,
                         maxDeg: Int, triangles: Long, triPerVertex: Double,
                         maxTriPerVertex: Long)

  def compute(name: String, g: SparkGraph): Stats = {
    val local = g.toLocal
    val tri = TriangleCount.perVertexLocal(g.spark, local)
    val t = tri.sum / 3
    Stats(name, local.n, local.m, local.m.toDouble / local.n, local.maxDegree, t, t.toDouble / local.n,
          tri.maxOption.getOrElse(0L))
  }
}
