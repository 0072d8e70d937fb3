package repro.graph

import repro.setalg.{SetFactory, VertexSet}

/** Immutable CSR ("adjacency array", the GMS default representation §2.3):
  * `offsets` has n+1 entries; neighbors of v are `adj[offsets(v) until
  * offsets(v+1))`, sorted ascending, no self-loops, no duplicates, and the
  * graph is symmetric (undirected).
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

  /** Neighbors of v as a shared read-only slice view (no copy). */
  def neighborsSlice(v: Int): (Array[Int], Int, Int) = (adj, offsets(v), offsets(v + 1))

  /** Neighbors of v as a fresh array. */
  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  def hasEdge(u: Int, v: Int): Boolean = {
    val lo = offsets(u); val hi = offsets(u + 1)
    binarySearchRange(adj, lo, hi, v) >= 0
  }

  private def binarySearchRange(a: Array[Int], from: Int, to: Int, key: Int): Int =
    java.util.Arrays.binarySearch(a, from, to, key)

  /** Every neighborhood as a [[VertexSet]], built eagerly — the Fig.-8c
    * representation-size probe. Kernels read sets through [[SetGraph]].
    */
  def neighborhoods(factory: SetFactory): Array[VertexSet] = {
    val out = new Array[VertexSet](n)
    var v = 0
    while (v < n) { out(v) = factory.fromSorted(neighbors(v), n); v += 1 }
    out
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

  /** Every stored arc once — for directed (oriented) CSRs where `adj` holds
    * only out-neighbors, this is the directed edge list.
    */
  def edgeListDirected: Array[(Int, Int)] = {
    val out = new Array[(Int, Int)](adj.length)
    var u = 0; var k = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { out(k) = (u, adj(i)); k += 1; i += 1 }
      u += 1
    }
    out
  }

  /** Induced subgraph on `verts` with vertices remapped to 0..k-1 in the
    * given order; also returns the old-ID array (index = new ID). Used by
    * the paper's subgraph optimization (BK-ADG-S) and by SI candidate
    * regions.
    */
  def inducedSubgraph(verts: Array[Int]): (LocalGraph, Array[Int]) = {
    val idOf = new java.util.HashMap[Int, Int](verts.length * 2)
    var i = 0
    while (i < verts.length) { idOf.put(verts(i), i); i += 1 }
    val deg = new Array[Int](verts.length)
    i = 0
    while (i < verts.length) {
      val v = verts(i)
      var j = offsets(v)
      while (j < offsets(v + 1)) { if (idOf.containsKey(adj(j))) deg(i) += 1; j += 1 }
      i += 1
    }
    val offs = new Array[Int](verts.length + 1)
    i = 0
    while (i < verts.length) { offs(i + 1) = offs(i) + deg(i); i += 1 }
    val nadj = new Array[Int](offs(verts.length))
    val cur = offs.clone()
    i = 0
    while (i < verts.length) {
      val v = verts(i)
      var j = offsets(v)
      while (j < offsets(v + 1)) {
        if (idOf.containsKey(adj(j))) { nadj(cur(i)) = idOf.get(adj(j)); cur(i) += 1 }
        j += 1
      }
      i += 1
    }
    // Remapped neighbor lists must stay sorted for CSR invariants.
    i = 0
    while (i < verts.length) { java.util.Arrays.sort(nadj, offs(i), offs(i + 1)); i += 1 }
    (new LocalGraph(offs, nadj), verts.clone())
  }

  /** Directed "later-neighbor" CSR under rank ordering: keeps (u,v) iff
    * rank(u) < rank(v). The standard clique-listing orientation (Alg. 7 line 9).
    */
  def orient(rank: Array[Int]): LocalGraph = {
    val deg = new Array[Int](n)
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { if (rank(u) < rank(adj(i))) deg(u) += 1; i += 1 }
      u += 1
    }
    val offs = new Array[Int](n + 1)
    u = 0
    while (u < n) { offs(u + 1) = offs(u) + deg(u); u += 1 }
    val nadj = new Array[Int](offs(n))
    val cur = offs.clone()
    u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        if (rank(u) < rank(adj(i))) { nadj(cur(u)) = adj(i); cur(u) += 1 }
        i += 1
      }
      u += 1
    }
    new LocalGraph(offs, nadj)
  }

  /** Total heap bytes of the plain CSR arrays (Fig. 8c baseline). */
  def csrBytes: Long = 32L + 4L * offsets.length + 4L * adj.length
}

object LocalGraph {

  /** Build from an arbitrary edge iterable: symmetrises, dedupes, drops
    * self-loops. Every endpoint must lie in `[0, n)`.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    edges.foreach { case e @ (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge $e has an endpoint outside [0, $n)")
    }
    val deg = new Array[Int](n)
    val clean = edges.iterator.collect {
      case (u, v) if u != v => if (u < v) (u, v) else (v, u)
    }.toArray.distinct
    clean.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val adj = new Array[Int](offsets(n))
    val cur = offsets.clone()
    clean.foreach { case (u, v) =>
      adj(cur(u)) = v; cur(u) += 1
      adj(cur(v)) = u; cur(v) += 1
    }
    i = 0
    while (i < n) { java.util.Arrays.sort(adj, offsets(i), offsets(i + 1)); i += 1 }
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
