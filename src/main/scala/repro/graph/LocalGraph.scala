package repro.graph

import repro.setalg.{SetFactory, VertexSet}

/** Immutable CSR ("adjacency array", the GMS default representation §2.3):
  * `offsets` has n+1 entries; neighbors of v are `adj[offsets(v) until
  * offsets(v+1))`, sorted ascending, no self-loops, no duplicates, and the
  * graph is symmetric (undirected). [[validate]] checks these invariants.
  *
  * This is the structure the distributed kernels broadcast, wrapped in a
  * [[SetGraph]] (the paper's `SetGraph<TSet>`, Listing 2) that reads each
  * neighborhood under a chosen [[SetFactory]].
  */
final class LocalGraph(val offsets: Array[Int], val adj: Array[Int]) extends Serializable {

  /** Number of vertices n. */
  def n: Int = offsets.length - 1

  /** Number of undirected edges m. */
  def m: Long = adj.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def maxDegree: Int = {
    var mx = 0; var v = 0
    while (v < n) { mx = math.max(mx, degree(v)); v += 1 }
    mx
  }

  /** Neighbors of v as a fresh array. */
  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(adj, offsets(u), offsets(u + 1), v) >= 0

  /** Every neighborhood as a [[VertexSet]], built eagerly through a
    * [[SetGraph]] — the Fig.-8c representation-size probe.
    */
  def neighborhoods(factory: SetFactory): Array[VertexSet] = {
    val sg = new SetGraph(this, factory)
    Array.tabulate(n)(sg.neighbors)
  }

  /** Undirected edge list with u < v (each edge once). */
  def edgeList: Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { if (adj(i) > u) out += ((u, adj(i))); i += 1 }
      u += 1
    }
    out.result()
  }

  /** Induced subgraph on `verts` with vertices remapped to 0..k-1 in the
    * given order; also returns the old-ID array (index = new ID). Used by
    * the paper's subgraph optimization (BK-ADG-S) and to cut SI queries out
    * of a target (`SiJob`, `SiBench`).
    */
  def inducedSubgraph(verts: Array[Int]): (LocalGraph, Array[Int]) = {
    val idOf = new java.util.HashMap[Int, Int](verts.length * 2)
    var i = 0
    while (i < verts.length) { idOf.put(verts(i), i); i += 1 }
    val arcs = new scala.collection.mutable.ArrayBuilder.ofLong
    i = 0
    while (i < verts.length) {
      var j = offsets(verts(i))
      while (j < offsets(verts(i) + 1)) {
        val w = idOf.getOrDefault(adj(j), -1)
        if (w >= 0) arcs += LocalGraph.packArc(i, w)
        j += 1
      }
      i += 1
    }
    val sorted = arcs.result()
    java.util.Arrays.sort(sorted)
    (LocalGraph.fromSortedArcs(verts.length, sorted, sorted.length), verts.clone())
  }

  /** Directed "later-neighbor" CSR under rank ordering: keeps (u,v) iff
    * rank(u) < rank(v). The standard clique-listing orientation (Alg. 7 line 9).
    * `rank` must be a permutation of 0..n-1 ([[Reorder.requireRank]]). The
    * kept arcs come in CSR order, which is already sorted.
    */
  def orient(rank: Array[Int]): LocalGraph = {
    Reorder.requireRank(rank, n)
    val arcs = new Array[Long](adj.length)
    var count = 0
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        if (rank(u) < rank(adj(i))) { arcs(count) = LocalGraph.packArc(u, adj(i)); count += 1 }
        i += 1
      }
      u += 1
    }
    LocalGraph.fromSortedArcs(n, arcs, count)
  }

  /** Checks the undirected CSR invariants and returns this graph:
    * `offsets(0) == 0`, offsets monotone, `offsets(n) == adj.length`; every
    * neighbour in `[0, n)`; each neighbourhood strictly ascending (sorted,
    * duplicate-free) and loop-free; and symmetry (`w ∈ N(u)` ⇒ `u ∈ N(w)`).
    * Throws `IllegalArgumentException` naming the first vertex that breaks
    * a rule. [[LocalGraph.fromEdges]] and [[SparkGraph.toLocal]] clean
    * their input, so their graphs pass; the check is for a CSR built any
    * other way.
    */
  def validate(): LocalGraph = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(msg)
    if (offsets.isEmpty) fail("offsets is empty")
    if (offsets(0) != 0) fail(s"offsets(0) is ${offsets(0)}, not 0")
    var v = 0
    while (v < n) {
      if (offsets(v) > offsets(v + 1)) fail(s"vertex $v: offsets decrease from ${offsets(v)} to ${offsets(v + 1)}")
      v += 1
    }
    if (offsets(n) != adj.length) fail(s"offsets($n) is ${offsets(n)}, but adj has ${adj.length} entries")
    v = 0
    while (v < n) {
      var i = offsets(v)
      while (i < offsets(v + 1)) {
        val w = adj(i)
        if (w < 0 || w >= n) fail(s"vertex $v: neighbour $w lies outside [0, $n)")
        if (w == v) fail(s"vertex $v: self-loop")
        if (i > offsets(v) && adj(i - 1) >= w) fail(s"vertex $v: neighbours not strictly ascending at ${adj(i - 1)}, $w")
        i += 1
      }
      v += 1
    }
    v = 0
    while (v < n) {
      var i = offsets(v)
      while (i < offsets(v + 1)) {
        if (!hasEdge(adj(i), v)) fail(s"vertex $v: arc to ${adj(i)} has no reverse arc")
        i += 1
      }
      v += 1
    }
    this
  }

  /** Total heap bytes of the plain CSR arrays (Fig. 8c baseline). */
  def csrBytes: Long = 32L + 4L * offsets.length + 4L * adj.length
}

object LocalGraph {

  /** Build from an arbitrary edge iterable: symmetrises, dedupes, drops
    * self-loops. Every endpoint must lie in `[0, n)`.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val arcs = new scala.collection.mutable.ArrayBuilder.ofLong
    edges.foreach { case (u, v) => addEdge(arcs, n, u, v) }
    val sorted = arcs.result()
    fromSortedArcs(n, sorted, sortDistinct(sorted))
  }

  /** Arc (u, v) as one long, `u` in the high and `v` in the low 32 bits;
    * for IDs ≥ 0 the longs sort by (u, v).
    */
  private[graph] def packArc(u: Int, v: Int): Long = (u.toLong << 32) | (v & 0xffffffffL)

  /** The error for an edge with an endpoint outside `[0, n)`; a null
    * endpoint prints as `null`.
    */
  private[graph] def outside(n: Int, u: Any, v: Any): Nothing =
    throw new IllegalArgumentException(s"edge ($u, $v) has an endpoint outside [0, $n)")

  /** Appends both arcs of edge (u, v) unless it is a self-loop. The
    * endpoints are checked while they are still `Long`s, so no ID is
    * wrapped into range by narrowing it.
    */
  private[graph] def addEdge(arcs: scala.collection.mutable.ArrayBuilder.ofLong, n: Int, u: Long, v: Long): Unit = {
    if (u < 0 || u >= n || v < 0 || v >= n) outside(n, u, v)
    if (u != v) { arcs += packArc(u.toInt, v.toInt); arcs += packArc(v.toInt, u.toInt) }
  }

  /** Sorts `arcs` in place and moves its distinct values, ascending, to the
    * front; returns how many there are.
    */
  private[graph] def sortDistinct(arcs: Array[Long]): Int = {
    java.util.Arrays.sort(arcs)
    var count = 0
    var i = 0
    while (i < arcs.length) {
      if (count == 0 || arcs(count - 1) != arcs(i)) { arcs(count) = arcs(i); count += 1 }
      i += 1
    }
    count
  }

  /** The CSR of the first `count` entries of `arcs`, packed arcs in
    * ascending order: counts the high halves into prefix-summed offsets and
    * takes the low halves as the adjacency. Every CSR is laid out here.
    */
  private[graph] def fromSortedArcs(n: Int, arcs: Array[Long], count: Int): LocalGraph = {
    val offsets = new Array[Int](n + 1)
    val adj = new Array[Int](count)
    var i = 0
    while (i < count) {
      val u = (arcs(i) >> 32).toInt
      if (u < 0 || u >= n) throw new IllegalArgumentException(s"vertex $u lies outside [0, $n)")
      offsets(u + 1) += 1
      adj(i) = arcs(i).toInt
      i += 1
    }
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    new LocalGraph(offsets, adj)
  }

  /** K_n. */
  def complete(n: Int): LocalGraph =
    fromEdges(n, for (u <- 0 until n; v <- u + 1 until n) yield (u, v))

  /** Cycle C_n. */
  def cycle(n: Int): LocalGraph =
    fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))

  /** Path P_n (n vertices, n-1 edges). */
  def path(n: Int): LocalGraph =
    fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Star with n-1 leaves. */
  def star(n: Int): LocalGraph =
    fromEdges(n, (1 until n).map(i => (0, i)))
}
