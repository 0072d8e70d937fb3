package repro.setalg

/** The paper's dense bitvector set: one bit per vertex of the universe.
  *
  * O(1) `add` / `remove` / `contains` (the property the paper leans on for
  * Bron-Kerbosch's dynamic P/X/R sets), word-parallel ∩ / \ via bitwise
  * ops, popcount-based cardinality. Space is Θ(universe) bits regardless of
  * occupancy — the dense end of the space/perf trade-off (§5.2).
  */
final class DenseBitSet private[setalg] (private val words: Array[Long],
                                         private var card: Int) extends VertexSet {

  override def cardinality: Int = card

  override def contains(b: Int): Boolean = {
    val w = b >>> 6
    w < words.length && ((words(w) >>> (b & 63)) & 1L) == 1L
  }

  private def asWords(b: VertexSet): Array[Long] = b.asInstanceOf[DenseBitSet].words

  override def diff(b: VertexSet): VertexSet = {
    val bw = asWords(b)
    val out = new Array[Long](words.length)
    var c = 0; var i = 0
    while (i < words.length) {
      val w = words(i) & ~bw(i)
      out(i) = w; c += java.lang.Long.bitCount(w); i += 1
    }
    new DenseBitSet(out, c)
  }

  override def intersectInto(b: VertexSet, dst: VertexSet): Unit = {
    val bw = asWords(b)
    val d = dst.asInstanceOf[DenseBitSet]
    val out = d.words
    var c = 0; var i = 0
    while (i < words.length) {
      val w = words(i) & bw(i)
      out(i) = w; c += java.lang.Long.bitCount(w); i += 1
    }
    d.card = c
  }

  override def intersectCount(b: VertexSet): Int = {
    val bw = asWords(b)
    var c = 0; var i = 0
    val n = math.min(words.length, bw.length)
    while (i < n) { c += java.lang.Long.bitCount(words(i) & bw(i)); i += 1 }
    c
  }

  override def add(b: Int): Unit = {
    val w = b >>> 6
    require(w < words.length, s"vertex $b outside universe of ${words.length * 64}")
    if (((words(w) >>> (b & 63)) & 1L) == 0L) { words(w) |= 1L << (b & 63); card += 1 }
  }

  override def remove(b: Int): Unit = {
    val w = b >>> 6
    if (w < words.length && ((words(w) >>> (b & 63)) & 1L) == 1L) {
      words(w) &= ~(1L << (b & 63)); card -= 1
    }
  }

  override def cursor: IntCursor = new IntCursor {
    private var wi = 0
    private var cur = if (words.nonEmpty) words(0) else 0L
    private def advance(): Unit =
      while (cur == 0L && wi < words.length - 1) { wi += 1; cur = words(wi) }
    advance()
    override def hasNext: Boolean = cur != 0L
    override def next(): Int = {
      val bit = java.lang.Long.numberOfTrailingZeros(cur)
      cur &= cur - 1
      val v = (wi << 6) + bit
      advance()
      v
    }
  }

  def storageBytes: Long = 16L + 8L * words.length
}

object DenseBitSet extends SetFactory {
  override def name = "DenseBitSet"

  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet = {
    val words = wordsFor(universe)
    var i = 0
    while (i < sorted.length) {
      val v = sorted(i)
      require(v >= 0 && v < universe, s"vertex $v outside universe [0, $universe)")
      words(v >>> 6) |= 1L << (v & 63); i += 1
    }
    new DenseBitSet(words, sorted.length)
  }

  override def empty(universe: Int): VertexSet = new DenseBitSet(wordsFor(universe), 0)

  private def wordsFor(universe: Int): Array[Long] = new Array[Long](math.max(1, (universe + 63) >>> 6))
}
