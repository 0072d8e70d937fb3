package repro.setalg

import org.roaringbitmap.RoaringBitmap

/** The paper's `RoaringSet`: a compressed roaring bitmap [Chambi et al.].
  *
  * Spark ships `org.roaringbitmap`, so this is the *same* data structure the
  * paper credits for its largest Bron-Kerbosch speedups: mild compression,
  * no expensive decompression, fast bulk AND/OR/ANDNOT plus O(~1) point
  * updates. Cardinality is maintained by the library.
  */
final class RoaringSet private[setalg] (private var bm: RoaringBitmap) extends VertexSet {

  override def cardinality: Int = bm.getCardinality

  override def contains(b: Int): Boolean = bm.contains(b)

  private def asRoaring(b: VertexSet): RoaringBitmap = b.asInstanceOf[RoaringSet].bm

  override def intersectInto(b: VertexSet, dst: VertexSet): Unit = {
    val d = dst.asInstanceOf[RoaringSet]
    if (d eq this) bm.and(asRoaring(b)) else d.bm = RoaringBitmap.and(bm, asRoaring(b))
  }

  override def intersectCount(b: VertexSet): Int =
    RoaringBitmap.andCardinality(bm, asRoaring(b))

  override def diff(b: VertexSet): VertexSet =
    new RoaringSet(RoaringBitmap.andNot(bm, asRoaring(b)))

  override def add(b: Int): Unit    = bm.add(b)
  override def remove(b: Int): Unit = bm.remove(b)

  override def cursor: IntCursor = new IntCursor {
    private val it = bm.getIntIterator
    override def hasNext: Boolean = it.hasNext
    override def next(): Int = it.next()
  }

  override def toArray: Array[Int] = bm.toArray

  def storageBytes: Long = bm.getSizeInBytes
}

object RoaringSet extends SetFactory {
  override def name = "RoaringSet"

  override def fromSorted(sorted: Array[Int], universe: Int): VertexSet = {
    val bm = RoaringBitmap.bitmapOf(sorted: _*)
    bm.runOptimize()
    new RoaringSet(bm)
  }

  override def empty(universe: Int): VertexSet = new RoaringSet(new RoaringBitmap())
}
