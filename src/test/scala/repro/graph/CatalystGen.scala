package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The Catalyst queries whose rows the [[GraphGen]] generators draw on the
  * driver: the reference that `GraphGenSpec` checks the draws against. Each
  * returns the raw `(src, dst)` rows of the generator of the same name.
  */
object CatalystGen {

  def er(spark: SparkSession, n: Int, m: Long, seed: Long): DataFrame =
    spark.range(m).select(
      (rand(seed) * n).cast("int") as "src",
      (rand(seed + 1) * n).cast("int") as "dst",
    )

  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19, seed: Long): DataFrame = {
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
    spark.range(edgeFactor.toLong * n).select(src as "src", dst as "dst")
  }

  def ringLattice(spark: SparkSession, n: Int, k: Int, rewireFrac: Double, seed: Long): DataFrame = {
    import spark.implicits._
    val offs = explode(sequence(lit(1), lit(k))) as "off"
    val base = spark.range(n).select($"id".cast("int") as "i", offs)
    base.select(
      $"i" as "src",
      when(rand(seed) < rewireFrac, (rand(seed + 1) * n).cast("int"))
        .otherwise(pmod($"i" + $"off", lit(n)).cast("int")) as "dst",
    )
  }

  def plantedCliques(spark: SparkSession, n: Int, bgEdges: Long,
                     cliques: Int, sizes: Seq[Int], seed: Long): DataFrame = {
    import spark.implicits._
    val stride = sizes.max
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
    pairs.union(er(spark, n, bgEdges, seed))
  }

  def grid(spark: SparkSession, rows: Int, cols: Int): DataFrame = {
    import spark.implicits._
    val n = rows * cols
    val v = spark.range(n).select($"id".cast("int") as "v")
    val right = v.where(($"v" % cols) < cols - 1).select($"v" as "src", ($"v" + 1) as "dst")
    val down  = v.where($"v" < n - cols).select($"v" as "src", ($"v" + cols) as "dst")
    right.union(down)
  }
}
