package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic graph generators (GMS §4.2 datasets, reproduced synthetically).
  *
  * The paper recommends graphs varying in sparsity m/n, degree skew,
  * diameter, and — crucially for mining (§8.6) — *higher-order structure*
  * (triangle count T and its per-vertex skew). No network egress is available
  * for SNAP/KONECT downloads, so each origin class in Table 7 gets a
  * deterministic generator that reproduces its stress axis:
  *
  *  - [[er]] — Erdős-Rényi, the paper's uniform random model;
  *  - [[rmat]] — Kronecker/R-MAT power-law, the paper's skewed model
  *    ("social"/"web": high degree skew, moderate T-skew);
  *  - [[ringLattice]] — Watts-Strogatz-style lattice ("structural" meshes:
  *    many triangles, very low T-skew, like Gearbox/ldoor);
  *  - [[plantedCliques]] — ER background + planted cliques of varying size
  *    ("recommendation/communication": huge T-skew, like Jester2/RecDate);
  *  - [[grid]] — 2-D grid ("road": extremely low m/n, nearly no triangles).
  *
  * Everything is generated with Catalyst expressions over `spark.range`, so
  * graphs are deterministic in (params, seed). A generator returns its raw
  * draws; the first use of [[SparkGraph.toLocal]] cleans them in the
  * executors and holds only the CSR on the driver.
  */
object GraphGen {

  /** G(n, ~m) Erdős-Rényi: m draws of uniform endpoint pairs. The CSR
    * build drops duplicate and looped draws, so the realised edge count is
    * slightly below m.
    */
  def er(spark: SparkSession, n: Int, m: Long, seed: Long = 7): SparkGraph = {
    val df = spark.range(m).select(
      (rand(seed) * n).cast("int") as "src",
      (rand(seed + 1) * n).cast("int") as "dst",
    )
    SparkGraph.fromEdgeList(spark, df, n)
  }

  /** R-MAT / stochastic-Kronecker power-law graph with 2^scale vertices and
    * ~edgeFactor·2^scale edges. Standard Graph500 parameters (a,b,c) =
    * (0.57, 0.19, 0.19). Built level-by-level with pure column expressions:
    * at bit i an independent uniform draw picks the quadrant, setting bit i
    * of src and dst.
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19,
           seed: Long = 11): SparkGraph = {
    val n = 1 << scale
    var src = lit(0L)
    var dst = lit(0L)
    for (i <- 0 until scale) {
      val r = rand(seed + i)
      val srcBit = when(r < a + b, 0L).otherwise(1L)
      val dstBit = when(r < a || (r >= a + b && r < a + b + c), 0L).otherwise(1L)
      src = src + shiftleft(srcBit, i)
      dst = dst + shiftleft(dstBit, i)
    }
    val df = spark.range(edgeFactor.toLong * n).select(src as "src", dst as "dst")
    SparkGraph.fromEdgeList(spark, df, n)
  }

  /** Ring lattice: vertex i connects to i±1..i±k (mod n). Near-regular, many
    * triangles (each vertex closes ~k(k-1) of them), minimal T-skew.
    * `rewireFrac` optionally rewires a fraction of lattice edges to random
    * endpoints (Watts-Strogatz small-world flavour).
    */
  def ringLattice(spark: SparkSession, n: Int, k: Int,
                  rewireFrac: Double = 0.0, seed: Long = 13): SparkGraph = {
    import spark.implicits._
    val offs = explode(sequence(lit(1), lit(k))) as "off"
    val base = spark.range(n).select($"id".cast("int") as "i", offs)
    val df = base.select(
      $"i" as "src",
      when(rand(seed) < rewireFrac, (rand(seed + 1) * n).cast("int"))
        .otherwise(pmod($"i" + $"off", lit(n)).cast("int")) as "dst",
    )
    SparkGraph.fromEdgeList(spark, df, n)
  }

  /** ER background + `cliques` planted cliques with sizes cycling over
    * `sizes`; clique c occupies the vertex range starting at c·max(sizes)
    * (ranges are disjoint). Gives a huge per-vertex triangle-count skew.
    */
  def plantedCliques(spark: SparkSession, n: Int, bgEdges: Long,
                     cliques: Int, sizes: Seq[Int], seed: Long = 17): SparkGraph = {
    import spark.implicits._
    val stride = sizes.max
    require(cliques * stride <= n, s"planted cliques need ${cliques * stride} vertices, have $n")
    val sizeArr = array(sizes.map(lit): _*)
    // One row per planted clique; explode the (u, v) pairs of each.
    val cl = spark.range(cliques).select(
      ($"id" * stride).cast("int") as "base",
      element_at(sizeArr, ($"id" % sizes.length).cast("int") + 1) as "size",
    )
    val pairs = cl
      .select($"base", explode(sequence(lit(0), $"size" - 2)) as "i", $"size")
      .select($"base", $"i", explode(sequence($"i" + 1, $"size" - 1)) as "j")
      .select(($"base" + $"i").cast("int") as "src", ($"base" + $"j").cast("int") as "dst")
    val bg = spark.range(bgEdges).select(
      (rand(seed) * n).cast("int") as "src",
      (rand(seed + 1) * n).cast("int") as "dst",
    )
    SparkGraph.fromEdgeList(spark, pairs.union(bg), n)
  }

  /** rows × cols 2-D grid ("road network": m/n → 2, no triangles). */
  def grid(spark: SparkSession, rows: Int, cols: Int): SparkGraph = {
    import spark.implicits._
    val n = rows * cols
    val v = spark.range(n).select($"id".cast("int") as "v")
    val right = v.where(($"v" % cols) < cols - 1).select($"v" as "src", ($"v" + 1) as "dst")
    val down  = v.where($"v" < n - cols).select($"v" as "src", ($"v" + cols) as "dst")
    SparkGraph.fromEdgeList(spark, right.union(down), n)
  }

  /** Complete graph K_n at the dataflow level (tests / closed-form counts). */
  def complete(spark: SparkSession, n: Int): SparkGraph =
    SparkGraph.fromLocal(spark, LocalGraph.complete(n))

  /** Deterministic local ER for driver-side brute-force tests. */
  def erLocal(n: Int, p: Double, seed: Long): LocalGraph = {
    val rnd = new scala.util.Random(seed)
    val edges = for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < p) yield (u, v)
    LocalGraph.fromEdges(n, edges)
  }
}
