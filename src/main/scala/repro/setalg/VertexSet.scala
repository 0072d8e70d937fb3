package repro.setalg

/** The GMS set interface (paper Listing 1), ported to Scala: the operators
  * the kernels use. A `VertexSet` holds vertex IDs (non-negative `Int`s) and
  * offers ∩ (the in-place `intersectInto`, and `intersectCount` for
  * |A ∩ B|), \ (`diff`), ∈ (`contains`), |·| (`cardinality`, `isEmpty`),
  * the single-element `add` / `remove` that Bron-Kerbosch applies to P and
  * X, ascending `cursor` / `toArray`, and `storageBytes` (Fig. 8c).
  *
  * `diff` returns a **new** set. Three operations mutate a set: `add` /
  * `remove` mutate the receiver, and `intersectInto` overwrites a
  * destination set that the caller owns. That destination is a set from a
  * [[Scratch]] or the receiver itself (the paper's `intersect_inplace`),
  * never a set shared with other readers, such as a
  * [[repro.graph.SetGraph]] neighbourhood. The operand of a bulk operation,
  * and the destination of `intersectInto`, have the receiver's
  * representation and universe (the sorted, roaring and dense sets read them
  * by a cast). A SetGraph guarantees this: every set a kernel touches comes
  * from its one factory (paper Listing 2).
  */
trait VertexSet extends Serializable {

  /** |A| */
  def cardinality: Int

  /** b ∈ A */
  def contains(b: Int): Boolean

  /** dst = A ∩ B, overwriting what `dst` held. `dst` is the receiver or a
    * set that is neither operand. The sorted and dense sets allocate nothing
    * once `dst` has grown to the result's size; the roaring and hash sets
    * may allocate.
    */
  def intersectInto(b: VertexSet, dst: VertexSet): Unit

  /** |A ∩ B| without materialising the intersection. */
  def intersectCount(b: VertexSet): Int

  /** A \ B as a new set. */
  def diff(b: VertexSet): VertexSet

  /** A = A ∪ {b} (mutating). */
  def add(b: Int): Unit

  /** A = A \ {b} (mutating). */
  def remove(b: Int): Unit

  def isEmpty: Boolean = cardinality == 0

  /** Elements in ascending order, read as unboxed `Int`s. The set must not
    * change while the cursor is in use.
    */
  def cursor: IntCursor

  /** Elements as a fresh ascending array (paper's `toArray`). */
  def toArray: Array[Int] = {
    val out = new Array[Int](cardinality)
    val c = cursor
    var i = 0
    while (c.hasNext) { out(i) = c.next(); i += 1 }
    out
  }

  /** Approximate heap bytes of the backing storage — the Fig.-8c
    * representation-size metric.
    */
  def storageBytes: Long

  override def toString: String = toArray.mkString("{", ",", "}")
}

/** An ascending read of a set's elements that returns primitive `Int`s, so
  * a kernel's inner loop reads a set without boxing.
  */
trait IntCursor {
  def hasNext: Boolean
  def next(): Int
}

/** An [[IntCursor]] over `elems[0, end)`. */
private[setalg] final class ArrayCursor(elems: Array[Int], end: Int) extends IntCursor {
  private var i = 0
  override def hasNext: Boolean = i < end
  override def next(): Int = { val v = elems(i); i += 1; v }
}

/** Factory for one set representation — the pluggable "module" of GMS.
  *
  * `universe` is an exclusive upper bound on vertex IDs; dense
  * representations size their backing storage from it, sparse ones ignore it.
  */
trait SetFactory extends Serializable {
  def name: String

  /** Build from a **sorted, duplicate-free** array (CSR neighborhood). The
    * set may keep `sorted` as its storage, so the caller hands the array
    * over and must not read or write it afterwards.
    */
  def fromSorted(sorted: Array[Int], universe: Int): VertexSet

  /** A new empty set, owned by the caller; a [[Scratch]] makes its sets
    * with it.
    */
  def empty(universe: Int): VertexSet
}

/** The destinations of [[VertexSet.intersectInto]] for one recursion: one
  * empty set per depth, made by `factory` over `universe` on first use and
  * then reused, so a kernel allocates no set once they have grown (the
  * roaring and hash sets still may). One thread owns a scratch; a caller
  * reads depth d's set until it next writes there.
  */
final class Scratch(factory: SetFactory, universe: Int) {
  private var sets = new Array[VertexSet](8)

  def apply(depth: Int): VertexSet = {
    if (depth >= sets.length) sets = java.util.Arrays.copyOf(sets, math.max(depth + 1, 2 * sets.length))
    if (sets(depth) == null) sets(depth) = factory.empty(universe)
    sets(depth)
  }
}

object SetFactory {
  val sorted: SetFactory  = SortedArraySet
  val roaring: SetFactory = RoaringSet
  val dense: SetFactory   = DenseBitSet
  val hash: SetFactory    = HashVertexSet

  /** All shipped representations, for representation-sweep experiments. */
  def all: Seq[SetFactory] = Seq(sorted, roaring, dense, hash)
}
