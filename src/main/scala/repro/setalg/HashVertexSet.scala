package repro.setalg

/** The paper's `HashSet` representation (they use the Robin Hood library;
  * here an open-addressing linear-probe table over primitive `Int`s, which
  * keeps the same O(1) expected point ops without boxing).
  *
  * Sentinel `-1` marks empty slots (vertex IDs are non-negative). Deletion
  * uses backward-shift compaction, the Robin-Hood-family approach that avoids
  * tombstone buildup in Bron-Kerbosch's heavy add/remove churn.
  */
final class HashVertexSet private[setalg] (initialCapacity: Int) extends VertexSet {

  private var table: Array[Int] = HashVertexSet.emptyTable(initialCapacity)
  private var size = 0

  private def mask: Int = table.length - 1
  private def slot(v: Int): Int = {
    // Fibonacci hashing spreads consecutive vertex IDs across the table.
    ((v * 0x9E3779B9) >>> (32 - Integer.numberOfTrailingZeros(table.length))) & mask
  }

  private def grow(): Unit = {
    val old = table
    table = Array.fill(old.length * 2)(-1)
    size = 0
    var i = 0
    while (i < old.length) { if (old(i) >= 0) add(old(i)); i += 1 }
  }

  override def cardinality: Int = size

  override def contains(b: Int): Boolean = {
    var i = slot(b)
    while (table(i) != -1) {
      if (table(i) == b) return true
      i = (i + 1) & mask
    }
    false
  }

  override def add(b: Int): Unit = {
    if (size * 4 >= table.length * 3) grow()
    var i = slot(b)
    while (table(i) != -1) {
      if (table(i) == b) return
      i = (i + 1) & mask
    }
    table(i) = b
    size += 1
  }

  override def remove(b: Int): Unit = {
    var i = slot(b)
    while (table(i) != -1 && table(i) != b) i = (i + 1) & mask
    if (table(i) == -1) return
    // Backward-shift deletion: re-seat the probe chain after the hole.
    table(i) = -1
    size -= 1
    var j = (i + 1) & mask
    while (table(j) != -1) {
      val v = table(j)
      table(j) = -1
      size -= 1
      add(v)
      j = (j + 1) & mask
    }
  }

  override def intersectInto(b: VertexSet, dst: VertexSet): Unit = {
    val d = dst.asInstanceOf[HashVertexSet]
    val need = math.min(size, b.cardinality)
    val src = table
    // Size dst's table for this result, as a new set's would be: a reused
    // table that kept its largest size would slow every later scan of dst.
    // The receiver as dst gets a new table, so `src` stays intact.
    if ((d eq this) || d.table.length != HashVertexSet.tableLength(need))
      d.table = HashVertexSet.emptyTable(need)
    else java.util.Arrays.fill(d.table, -1)
    d.size = 0
    var i = 0
    while (i < src.length) { val v = src(i); if (v >= 0 && b.contains(v)) d.add(v); i += 1 }
  }

  override def intersectCount(b: VertexSet): Int = {
    val (small, large) = if (cardinality <= b.cardinality) (this: VertexSet, b) else (b, this: VertexSet)
    var c = 0
    val it = small.cursor
    while (it.hasNext) { if (large.contains(it.next())) c += 1 }
    c
  }

  override def diff(b: VertexSet): VertexSet = {
    val out = new HashVertexSet(cardinality)
    val it = cursor
    while (it.hasNext) { val v = it.next(); if (!b.contains(v)) out.add(v) }
    out
  }

  /** Ascending order, per the interface contract (sorts on demand). */
  override def toArray: Array[Int] = {
    val out = new Array[Int](size)
    var i = 0; var k = 0
    while (i < table.length) { if (table(i) >= 0) { out(k) = table(i); k += 1 }; i += 1 }
    java.util.Arrays.sort(out)
    out
  }

  override def cursor: IntCursor = new ArrayCursor(toArray, size)

  def storageBytes: Long = 24L + 4L * table.length
}

object HashVertexSet extends SetFactory {
  override def name = "HashSet"
  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet = {
    val s = new HashVertexSet(sorted.length)
    sorted.foreach(s.add)
    s
  }

  override def empty(universe: Int): VertexSet = new HashVertexSet(0)

  /** Slots for `n` elements at load ≤ 1/2, a power of two. */
  private def tableLength(n: Int): Int = math.max(8, Integer.highestOneBit(math.max(1, n * 2 - 1)) * 2)

  private def emptyTable(n: Int): Array[Int] = Array.fill(tableLength(n))(-1)
}
