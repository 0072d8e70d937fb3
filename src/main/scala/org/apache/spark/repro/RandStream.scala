package org.apache.spark.repro

import org.apache.spark.util.random.XORShiftRandom

/** Spark's own generator behind the `rand(seed)` expression, which is
  * private to the `org.apache.spark` package. In partition `p` an occurrence
  * of `rand(seed)` draws from `new XORShiftRandom(seed + p)`, one
  * `nextDouble()` per row on which it is evaluated.
  */
object RandStream {

  /** The stream of one `rand(seed)` occurrence in partition `partition`. */
  def apply(seed: Long, partition: Int): java.util.Random = new XORShiftRandom(seed + partition)
}
