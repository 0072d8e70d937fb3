package repro.setalg

/** The GMS set interface (paper Listing 1), ported to Scala: the operators
  * the kernels use. A `VertexSet` holds vertex IDs (non-negative `Int`s) and
  * offers ∩ (`intersect`, and `intersectCount` for |A ∩ B|), \ (`diff`), ∪
  * (`union`), ∈ (`contains`), |·| (`cardinality`, `isEmpty`), the
  * single-element `add` / `remove` that Bron-Kerbosch applies to P and X,
  * ascending `iterator` / `toArray`, and `storageBytes` (Fig. 8c).
  *
  * Bulk operations return **new** sets (the paper's default, which avoids
  * aliasing bugs in recursive Bron-Kerbosch); only `add` / `remove` mutate
  * the receiver. The operand of a bulk operation has the receiver's
  * representation (the sorted, roaring and dense sets read it by a cast). A
  * [[repro.graph.SetGraph]] guarantees this: every set a kernel touches
  * comes from its one factory (paper Listing 2).
  */
trait VertexSet extends Serializable {

  /** |A| */
  def cardinality: Int

  /** b ∈ A */
  def contains(b: Int): Boolean

  /** A ∩ B as a new set. */
  def intersect(b: VertexSet): VertexSet

  /** |A ∩ B| without materialising the intersection. */
  def intersectCount(b: VertexSet): Int

  /** A \ B as a new set. */
  def diff(b: VertexSet): VertexSet

  /** A ∪ B as a new set. */
  def union(b: VertexSet): VertexSet

  /** A = A ∪ {b} (mutating). */
  def add(b: Int): Unit

  /** A = A \ {b} (mutating). */
  def remove(b: Int): Unit

  def isEmpty: Boolean = cardinality == 0

  /** Elements in ascending order. */
  def iterator: Iterator[Int]

  /** Elements as a fresh ascending array (paper's `toArray`). */
  def toArray: Array[Int] = iterator.toArray

  /** Approximate heap bytes of the backing storage — the Fig.-8c
    * representation-size metric.
    */
  def storageBytes: Long

  override def toString: String = iterator.mkString("{", ",", "}")
}

/** Factory for one set representation — the pluggable "module" of GMS.
  *
  * `universe` is an exclusive upper bound on vertex IDs; dense
  * representations size their backing storage from it, sparse ones ignore it.
  */
trait SetFactory extends Serializable {
  def name: String

  /** Build from a **sorted, duplicate-free** array (CSR neighborhood). */
  def fromSorted(sorted: Array[Int], universe: Int): VertexSet
}

object SetFactory {
  val sorted: SetFactory  = SortedArraySet
  val roaring: SetFactory = RoaringSet
  val dense: SetFactory   = DenseBitSet
  val hash: SetFactory    = HashVertexSet

  /** All shipped representations, for representation-sweep experiments. */
  def all: Seq[SetFactory] = Seq(sorted, roaring, dense, hash)
}
