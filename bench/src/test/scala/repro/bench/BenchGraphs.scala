package repro.bench

import org.apache.spark.sql.SparkSession
import repro.graph.{GraphGen, SparkGraph}

/** The six synthetic Table-7 stand-in graphs at bench scale (~SF 0.1), one
  * per origin class the paper argues matters (§4.2, §8.6). Deterministic in
  * seed. The sizes were tuned on a 16-core machine; on a 4-vCPU host,
  * building all six and computing their Table-7 statistics takes under a
  * minute, and the other families' run times there are not all measured.
  */
object BenchGraphs {

  final case class Named(name: String, cls: String, build: SparkSession => SparkGraph)

  val all: Seq[Named] = Seq(
    Named("kron-social", "[so] power-law",
      s => GraphGen.rmat(s, scale = 13, edgeFactor = 40)),
    Named("lattice-struct", "[st] mesh-like",
      s => GraphGen.ringLattice(s, n = 20000, k = 24, rewireFrac = 0.02)),
    Named("planted-rec", "[re] clique-rich",
      s => GraphGen.plantedCliques(s, n = 12000, bgEdges = 250000,
                                   cliques = 300, sizes = Seq(8, 12, 16, 22, 30))),
    Named("grid-road", "[ro] road-like",
      s => GraphGen.grid(s, rows = 150, cols = 150)),
    Named("er-uniform", "[--] uniform",
      s => GraphGen.er(s, n = 10000, m = 250000)),
    Named("kron-web", "[wb] power-law",
      s => GraphGen.rmat(s, scale = 12, edgeFactor = 32,
                         a = 0.60, b = 0.19, c = 0.16, seed = 23)),
  )

  def byName(n: String): Named = all.find(_.name == n).get
}
