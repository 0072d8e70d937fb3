package repro.setalg

import java.util.Arrays

/** The paper's `SortedSet`: a sorted, duplicate-free `Int` array — the same
  * layout as a CSR neighborhood. Bulk ∩ / ∪ / \ use linear merging; when the
  * operand sizes are lopsided (>32× apart) intersection switches to the
  * "galloping" scheme (binary-search each element of the small set in the
  * large one), matching the paper's §6.5 merge-vs-gallop tuning knob.
  *
  * `add`/`remove` are O(n) (array shift) — acceptable because Bron-Kerbosch
  * touches small candidate sets there, and exactly the trade-off the paper
  * highlights between array sets and bitvectors.
  */
final class SortedArraySet private[setalg] (private var elems: Array[Int]) extends VertexSet {

  private def gallopThreshold = 32

  override def cardinality: Int = elems.length

  override def contains(b: Int): Boolean = Arrays.binarySearch(elems, b) >= 0

  private def asSorted(b: VertexSet): Array[Int] = b.asInstanceOf[SortedArraySet].elems

  private def mergeIntersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    Arrays.copyOf(out, k)
  }

  private def gallopIntersect(small: Array[Int], large: Array[Int]): Array[Int] = {
    val out = new Array[Int](small.length)
    var k = 0; var i = 0
    while (i < small.length) {
      if (Arrays.binarySearch(large, small(i)) >= 0) { out(k) = small(i); k += 1 }
      i += 1
    }
    Arrays.copyOf(out, k)
  }

  override def intersect(b: VertexSet): VertexSet = {
    val a = elems; val bb = asSorted(b)
    val (s, l) = if (a.length <= bb.length) (a, bb) else (bb, a)
    new SortedArraySet(if (s.length.toLong * gallopThreshold < l.length) gallopIntersect(s, l)
                       else mergeIntersect(a, bb))
  }

  override def intersectCount(b: VertexSet): Int = {
    val a = elems; val bb = asSorted(b)
    val (sm, lg) = if (a.length <= bb.length) (a, bb) else (bb, a)
    if (sm.length.toLong * gallopThreshold < lg.length) {
      var c = 0; var i = 0
      while (i < sm.length) { if (Arrays.binarySearch(lg, sm(i)) >= 0) c += 1; i += 1 }
      c
    } else {
      var i = 0; var j = 0; var c = 0
      while (i < a.length && j < bb.length) {
        val x = a(i); val y = bb(j)
        if (x == y) { c += 1; i += 1; j += 1 } else if (x < y) i += 1 else j += 1
      }
      c
    }
  }

  override def diff(b: VertexSet): VertexSet = {
    val bb = asSorted(b)
    val out = new Array[Int](elems.length)
    var k = 0; var i = 0; var j = 0
    while (i < elems.length) {
      val x = elems(i)
      while (j < bb.length && bb(j) < x) j += 1
      if (j >= bb.length || bb(j) != x) { out(k) = x; k += 1 }
      i += 1
    }
    new SortedArraySet(Arrays.copyOf(out, k))
  }

  override def union(b: VertexSet): VertexSet = {
    val bb = asSorted(b)
    val out = new Array[Int](elems.length + bb.length)
    var i = 0; var j = 0; var k = 0
    while (i < elems.length && j < bb.length) {
      val x = elems(i); val y = bb(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) { out(k) = x; k += 1; i += 1 }
      else { out(k) = y; k += 1; j += 1 }
    }
    while (i < elems.length) { out(k) = elems(i); k += 1; i += 1 }
    while (j < bb.length) { out(k) = bb(j); k += 1; j += 1 }
    new SortedArraySet(Arrays.copyOf(out, k))
  }

  override def add(b: Int): Unit = {
    val pos = Arrays.binarySearch(elems, b)
    if (pos < 0) {
      val ins = -pos - 1
      val out = new Array[Int](elems.length + 1)
      System.arraycopy(elems, 0, out, 0, ins)
      out(ins) = b
      System.arraycopy(elems, ins, out, ins + 1, elems.length - ins)
      elems = out
    }
  }

  override def remove(b: Int): Unit = {
    val pos = Arrays.binarySearch(elems, b)
    if (pos >= 0) {
      val out = new Array[Int](elems.length - 1)
      System.arraycopy(elems, 0, out, 0, pos)
      System.arraycopy(elems, pos + 1, out, pos, elems.length - pos - 1)
      elems = out
    }
  }

  override def iterator: Iterator[Int] = elems.iterator
  override def toArray: Array[Int] = elems.clone()

  /** Approximate heap bytes of the backing storage (for Fig. 8c memory bench). */
  def storageBytes: Long = 16L + 4L * elems.length
}

object SortedArraySet extends SetFactory {
  override def name = "SortedSet"
  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet =
    new SortedArraySet(sorted.clone())
}
