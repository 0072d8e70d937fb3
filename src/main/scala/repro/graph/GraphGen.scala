package repro.graph

import org.apache.spark.repro.RandStream
import org.apache.spark.sql.SparkSession

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
  * Every generator draws its raw rows on the driver, as a pure function of
  * (parameters, seed, slice), and the first use of [[SparkGraph.toLocal]]
  * cleans them into the CSR with no Spark job. The rows are exactly those
  * of a Catalyst query over `spark.range` (each generator's scaladoc gives
  * its query; the tests hold the queries and check the rows against them):
  *  - `spark.range(r)` splits its r rows into the session's
  *    `spark.sql.leafNodeDefaultParallelism` slices, else
  *    `defaultParallelism`, slice s holding rows `[s·r/S, (s+1)·r/S)`;
  *  - each occurrence of `rand(seed)` in a query is a stream of its own,
  *    Spark's `XORShiftRandom(seed + s)` in slice s ([[RandStream]]),
  *    advanced only on the rows where Catalyst evaluates it: `||` and `&&`
  *    short-circuit, and a `when` value is evaluated only where its
  *    condition holds.
  * So graphs are deterministic in (parameters, seed, slice count).
  */
object GraphGen {

  /** G(n, ~m) Erdős-Rényi: m draws of uniform endpoint pairs. The CSR
    * build drops duplicate and looped draws, so the realised edge count is
    * slightly below m. The query:
    * `spark.range(m).select((rand(seed) * n).cast("int"), (rand(seed + 1) * n).cast("int"))`.
    */
  def er(spark: SparkSession, n: Int, m: Long, seed: Long = 7): SparkGraph = {
    val slices = rangeSlices(spark)
    drawn(spark, n, slices)((s, emit) => uniformPairs(n, m, seed, slices, s, emit))
  }

  /** R-MAT / stochastic-Kronecker power-law graph (Chakrabarti, Zhan and
    * Faloutsos, SDM 2004) with 2^scale vertices and edgeFactor·2^scale
    * draws, Graph500's (a, b, c) = (0.57, 0.19, 0.19) by default. The query
    * sets bit i of each endpoint from `r = rand(seed + i)`:
    * `src_i = when(r < a + b, 0).otherwise(1)` and
    * `dst_i = when(r < a || (r >= a + b && r < a + b + c), 0).otherwise(1)`.
    *
    * That is four occurrences of `r`, so four streams per level, and not
    * one draw per level picking a quadrant. The first two occurrences are
    * evaluated on every row, so they read the same draw u; the other two
    * advance only when u ≥ a. A level's quadrant is therefore (0, 0) when
    * u < a, and for a ≤ u < a + b it is (0, 0) with the probability q that
    * the two later draws give `dst_i = 0`, else (0, 1); for u ≥ a + b it is
    * (1, 0) with probability q, else (1, 1). On bk-social's seed-0 rows
    * (scale 12, edge factor 40) the measured quadrant frequencies are
    * (0.613, 0.146, 0.055, 0.186), not (a, b, c, d) = (0.57, 0.19, 0.19,
    * 0.05). Reading one draw per level would change every R-MAT graph and
    * the benchmark's recorded counts.
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19,
           seed: Long = 11): SparkGraph = {
    val n = 1 << scale
    val slices = rangeSlices(spark)
    val ab = a + b
    val abc = a + b + c
    drawn(spark, n, slices) { (s, emit) =>
      val r = Array.tabulate(scale, 4)((i, _) => RandStream(seed + i, s))
      forRange(edgeFactor.toLong * n, slices, s) { _ =>
        var src = 0
        var dst = 0
        var i = 0
        while (i < scale) {
          if (r(i)(0).nextDouble() >= ab) src |= 1 << i
          if (!(r(i)(1).nextDouble() < a || (r(i)(2).nextDouble() >= ab && r(i)(3).nextDouble() < abc))) dst |= 1 << i
          i += 1
        }
        emit(src, dst)
      }
    }
  }

  /** Ring lattice: vertex i connects to i±1..i±k (mod n). Near-regular, many
    * triangles (each vertex closes ~k(k-1) of them), minimal T-skew.
    * `rewireFrac` optionally rewires a fraction of lattice edges to random
    * endpoints (Watts-Strogatz small-world flavour). The query: one row per
    * (i, off) of `spark.range(n)` × `explode(sequence(1, k))`, with
    * `dst = when(rand(seed) < rewireFrac, (rand(seed + 1) * n).cast("int"))
    * .otherwise(pmod(i + off, n))`.
    */
  def ringLattice(spark: SparkSession, n: Int, k: Int,
                  rewireFrac: Double = 0.0, seed: Long = 13): SparkGraph = {
    val slices = rangeSlices(spark)
    drawn(spark, n, slices) { (s, emit) =>
      val rewire = RandStream(seed, s)
      val target = RandStream(seed + 1, s)
      forRange(n, slices, s) { id =>
        val i = id.toInt
        for (off <- sequence(1, k)) {
          emit(i, if (rewire.nextDouble() < rewireFrac) (target.nextDouble() * n).toInt else Math.floorMod(i + off, n))
        }
      }
    }
  }

  /** ER background + `cliques` planted cliques with sizes cycling over
    * `sizes`; clique c occupies the vertex range starting at c·max(sizes)
    * (ranges are disjoint). Gives a huge per-vertex triangle-count skew.
    * The query is the union of the pairs (base + i, base + j) of
    * `spark.range(cliques)`, i in `sequence(0, size - 2)` and j in
    * `sequence(i + 1, size - 1)`, then [[er]]'s query over `bgEdges` rows.
    */
  def plantedCliques(spark: SparkSession, n: Int, bgEdges: Long,
                     cliques: Int, sizes: Seq[Int], seed: Long = 17): SparkGraph = {
    val stride = sizes.max
    require(cliques * stride <= n, s"planted cliques need ${cliques * stride} vertices, have $n")
    val sizeArr = sizes.toArray
    val slices = rangeSlices(spark)
    union(spark, n, slices)(
      (s, emit) => forRange(cliques, slices, s) { c =>
        val base = (c * stride).toInt
        val size = sizeArr((c % sizeArr.length).toInt)
        for (i <- sequence(0, size - 2); j <- sequence(i + 1, size - 1)) emit(base + i, base + j)
      },
      (s, emit) => uniformPairs(n, bgEdges, seed, slices, s, emit))
  }

  /** rows × cols 2-D grid ("road network": m/n → 2, no triangles). The query
    * is the union of (v, v + 1) for each v of `spark.range(n)` with
    * `v % cols < cols - 1` and of (v, v + cols) for each v with `v < n - cols`.
    */
  def grid(spark: SparkSession, rows: Int, cols: Int): SparkGraph = {
    val n = rows * cols
    val slices = rangeSlices(spark)
    union(spark, n, slices)(
      (s, emit) => forRange(n, slices, s) { id => val v = id.toInt; if (v % cols < cols - 1) emit(v, v + 1) },
      (s, emit) => forRange(n, slices, s) { id => val v = id.toInt; if (v < n - cols) emit(v, v + cols) })
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

  /** `draw(s, emit)` emits the rows of slice s. */
  private type Draw = (Int, (Int, Int) => Unit) => Unit

  private def drawn(spark: SparkSession, n: Int, slices: Int)(draw: Draw): SparkGraph =
    SparkGraph.drawn(spark, n, SparkGraph.RawEdges(slices, draw))

  /** The union of two queries over `spark.range` in `slices` slices each:
    * the first one's slices, then the second one's. Two one-slice queries
    * have the same output partitioning, so Spark's union keeps them in one.
    */
  private def union(spark: SparkSession, n: Int, slices: Int)(first: Draw, second: Draw): SparkGraph =
    if (slices == 1) drawn(spark, n, 1) { (_, emit) => first(0, emit); second(0, emit) }
    else drawn(spark, n, 2 * slices)((s, emit) => if (s < slices) first(s, emit) else second(s - slices, emit))

  /** The slice count of `spark.range` in this session. */
  private def rangeSlices(spark: SparkSession): Int =
    spark.conf.getOption("spark.sql.leafNodeDefaultParallelism").fold(spark.sparkContext.defaultParallelism)(_.toInt)

  /** Runs `row(id)` for the ids of slice `s` of `spark.range(rows)`. */
  private def forRange(rows: Long, slices: Int, s: Int)(row: Long => Unit): Unit = {
    var id = (BigInt(s) * rows / slices).toLong
    val end = (BigInt(s + 1) * rows / slices).toLong
    while (id < end) { row(id); id += 1 }
  }

  /** Catalyst's `sequence(start, stop)`: ascending, or descending when
    * `start > stop`.
    */
  private def sequence(start: Int, stop: Int): Range =
    if (start <= stop) start to stop else start to stop by -1

  /** Slice s of `spark.range(rows)` drawing `(rand(seed) * n, rand(seed + 1) * n)`. */
  private def uniformPairs(n: Int, rows: Long, seed: Long, slices: Int, s: Int, emit: (Int, Int) => Unit): Unit = {
    val src = RandStream(seed, s)
    val dst = RandStream(seed + 1, s)
    forRange(rows, slices, s)(_ => emit((src.nextDouble() * n).toInt, (dst.nextDouble() * n).toInt))
  }
}
