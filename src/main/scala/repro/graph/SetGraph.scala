package repro.graph

import java.util.concurrent.atomic.AtomicReferenceArray
import repro.setalg.{SetFactory, VertexSet}

/** Paper Listing 2: the set-centric graph `SetGraph<TSet>` — a CSR whose
  * neighborhoods are read as [[VertexSet]]s of one representation.
  *
  * Each set is built at most once, on first touch, and then shared by every
  * thread that reads it (an `AtomicReferenceArray` publishes it safely; two
  * threads racing on one vertex may both build it, and one copy wins). The
  * kernels only read these sets, as operands of bulk operations and never
  * as the destination of `intersectInto`, so sharing them is safe. The cache is `@transient`: a SetGraph travels inside
  * a kernel's broadcast as its bare CSR, every task of one JVM reads the same
  * deserialised copy, and the sets go when the broadcast is destroyed.
  */
final class SetGraph(val graph: LocalGraph, val factory: SetFactory) extends Serializable {

  @transient private lazy val sets = new AtomicReferenceArray[VertexSet](graph.n)

  def n: Int = graph.n

  /** N(v) under [[factory]]; shared, so callers must not mutate it. */
  def neighbors(v: Int): VertexSet = {
    val s = sets.get(v)
    if (s != null) s
    else {
      sets.compareAndSet(v, null, factory.fromSorted(graph.neighbors(v), graph.n))
      sets.get(v)
    }
  }
}
