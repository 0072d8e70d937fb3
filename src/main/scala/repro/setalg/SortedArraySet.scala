package repro.setalg

import java.util.Arrays

/** The paper's `SortedSet`: a sorted, duplicate-free `Int` array — the same
  * layout as a CSR neighborhood — whose first `len` slots hold the set, so
  * a scratch set keeps its array as the results written into it shrink and
  * grow. ∩ and \ use linear merging; when the operand sizes are
  * lopsided (>32× apart) intersection switches to the "galloping" scheme
  * (binary-search each element of the small set in the large one), matching
  * the paper's §6.5 merge-vs-gallop tuning knob.
  *
  * `add`/`remove` are O(n) (array shift) — acceptable because Bron-Kerbosch
  * touches small candidate sets there, and exactly the trade-off the paper
  * highlights between array sets and bitvectors.
  */
final class SortedArraySet private[setalg] (private var elems: Array[Int], private var len: Int)
    extends VertexSet {

  private def gallopThreshold = 32

  override def cardinality: Int = len

  override def contains(b: Int): Boolean = Arrays.binarySearch(elems, 0, len, b) >= 0

  private def asSorted(b: VertexSet): SortedArraySet = b.asInstanceOf[SortedArraySet]

  /** Writes a[0, an) ∩ b[0, bn) ascending into `out` from index 0 and
    * returns its size. `out` may be `a` or `b`: no slot is written before
    * it has been read.
    */
  private def intersectArrays(a: Array[Int], an: Int, b: Array[Int], bn: Int, out: Array[Int]): Int =
    if (an > bn) intersectArrays(b, bn, a, an, out)
    else if (an.toLong * gallopThreshold < bn) {
      // Gallop: the k-th match sits at index ≥ k of `b`, and each search
      // starts past the previous match, so writes trail the reads.
      var k = 0; var i = 0; var lo = 0
      while (i < an && lo < bn) {
        val x = a(i)
        val pos = Arrays.binarySearch(b, lo, bn, x)
        if (pos >= 0) { out(k) = x; k += 1; lo = pos + 1 } else lo = -pos - 1
        i += 1
      }
      k
    } else {
      var i = 0; var j = 0; var k = 0
      while (i < an && j < bn) {
        val x = a(i); val y = b(j)
        if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
      k
    }

  override def intersectInto(b: VertexSet, dst: VertexSet): Unit = {
    val o = asSorted(b); val d = asSorted(dst)
    val need = math.min(len, o.len)
    // An operand as `dst` already holds ≥ `need` slots, so it never regrows.
    if (d.elems.length < need) d.elems = new Array[Int](math.max(need, 2 * d.elems.length))
    d.len = intersectArrays(elems, len, o.elems, o.len, d.elems)
  }

  override def intersectCount(b: VertexSet): Int = {
    val o = asSorted(b)
    countArrays(elems, len, o.elems, o.len)
  }

  /** |a[0, an) ∩ b[0, bn)|, by the same merge-or-gallop choice as
    * [[intersectArrays]].
    */
  private def countArrays(a: Array[Int], an: Int, b: Array[Int], bn: Int): Int =
    if (an > bn) countArrays(b, bn, a, an)
    else if (an.toLong * gallopThreshold < bn) {
      var c = 0; var i = 0; var lo = 0
      while (i < an && lo < bn) {
        val pos = Arrays.binarySearch(b, lo, bn, a(i))
        if (pos >= 0) { c += 1; lo = pos + 1 } else lo = -pos - 1
        i += 1
      }
      c
    } else {
      var i = 0; var j = 0; var c = 0
      while (i < an && j < bn) {
        val x = a(i); val y = b(j)
        if (x == y) { c += 1; i += 1; j += 1 } else if (x < y) i += 1 else j += 1
      }
      c
    }

  override def diff(b: VertexSet): VertexSet = {
    val o = asSorted(b); val bb = o.elems
    val out = new Array[Int](len)
    var k = 0; var i = 0; var j = 0
    while (i < len) {
      val x = elems(i)
      while (j < o.len && bb(j) < x) j += 1
      if (j >= o.len || bb(j) != x) { out(k) = x; k += 1 }
      i += 1
    }
    new SortedArraySet(out, k)
  }

  override def add(b: Int): Unit = {
    val pos = Arrays.binarySearch(elems, 0, len, b)
    if (pos < 0) {
      val ins = -pos - 1
      if (len == elems.length) elems = Arrays.copyOf(elems, math.max(4, 2 * len))
      System.arraycopy(elems, ins, elems, ins + 1, len - ins)
      elems(ins) = b
      len += 1
    }
  }

  override def remove(b: Int): Unit = {
    val pos = Arrays.binarySearch(elems, 0, len, b)
    if (pos >= 0) {
      System.arraycopy(elems, pos + 1, elems, pos, len - pos - 1)
      len -= 1
    }
  }

  override def cursor: IntCursor = new ArrayCursor(elems, len)
  override def toArray: Array[Int] = Arrays.copyOf(elems, len)

  /** Approximate heap bytes of the backing storage (for Fig. 8c memory bench). */
  def storageBytes: Long = 16L + 4L * elems.length
}

object SortedArraySet extends SetFactory {
  override def name = "SortedSet"

  /** Keeps `sorted` as the set's storage, without a copy. */
  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet =
    new SortedArraySet(sorted, sorted.length)

  override def empty(universe: Int): VertexSet = new SortedArraySet(Array.emptyIntArray, 0)
}
