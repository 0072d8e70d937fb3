package repro.setalg

/** The GMS set interface (paper Listing 1), ported to Scala.
  *
  * A `VertexSet` holds vertex IDs (non-negative `Int`s). The interface mirrors
  * the paper's `Set` class: bulk set-algebra methods (`intersect`, `diff`,
  * `union`, plus `_count` and `_inplace` variants), single-element `add` /
  * `remove`, membership, cardinality, and conversion to an integer array.
  *
  * Bulk operations return **new** sets (the paper's default, which avoids
  * aliasing bugs in recursive Bron-Kerbosch); `add` / `remove` and the
  * `_inplace` variants mutate the receiver (the paper's tuning variants).
  * Implementations are free to specialise per right-hand-side type — the
  * algorithms only ever speak this interface, which is exactly what gives
  * GMS its modularity (level 5+ in the paper's taxonomy).
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

  /** |A ∪ B| without materialising the union. */
  def unionCount(b: VertexSet): Int = cardinality + b.cardinality - intersectCount(b)

  /** A = A ∩ B (mutating). */
  def intersectInplace(b: VertexSet): Unit

  /** A = A \ B (mutating). */
  def diffInplace(b: VertexSet): Unit

  /** A = A ∪ {b} (mutating). */
  def add(b: Int): Unit

  /** A = A \ {b} (mutating). */
  def remove(b: Int): Unit

  def isEmpty: Boolean = cardinality == 0
  def nonEmpty: Boolean = !isEmpty

  /** Elements in ascending order. */
  def iterator: Iterator[Int]

  /** Elements as a fresh ascending array (paper's `toArray`). */
  def toArray: Array[Int] = iterator.toArray

  /** Deep copy (paper's `clone`; copy construction is deliberately explicit). */
  def copy(): VertexSet

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

  /** Empty set over `[0, universe)`. */
  def empty(universe: Int): VertexSet

  /** Build from a **sorted, duplicate-free** array (CSR neighborhood). */
  def fromSorted(sorted: Array[Int], universe: Int): VertexSet

  def singleton(v: Int, universe: Int): VertexSet = fromSorted(Array(v), universe)
}

object SetFactory {
  val sorted: SetFactory  = SortedArraySet
  val roaring: SetFactory = RoaringSet
  val dense: SetFactory   = DenseBitSet
  val hash: SetFactory    = HashVertexSet

  /** All shipped representations, for representation-sweep experiments. */
  def all: Seq[SetFactory] = Seq(sorted, roaring, dense, hash)

  def byName(n: String): SetFactory = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown set representation '$n'; have ${all.map(_.name)}"))
}
