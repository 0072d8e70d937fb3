package repro.core

import repro.setalg.VertexSet
import scala.collection.mutable.ArrayBuffer

/** The recursive Bron-Kerbosch kernel with Tomita pivoting (paper Alg. 6,
  * lines 18-28), written *only* against the [[VertexSet]] interface — the
  * paper's level-5+ modularity: swap the set representation and the
  * algorithm text does not change.
  */
object BronKerbosch {

  /** BK-Pivot(P, R, X).
    *
    * @param P        candidate vertices (consumed/mutated by the call)
    * @param R        current clique (mutated as a stack)
    * @param X        excluded vertices (mutated)
    * @param neigh    neighborhood accessor N(v) under the chosen representation
    * @param onClique called with R's contents for every maximal clique
    */
  def bkPivot(P: VertexSet, R: ArrayBuffer[Int], X: VertexSet,
              neigh: Int => VertexSet, onClique: ArrayBuffer[Int] => Unit): Unit = {
    if (P.isEmpty && X.isEmpty) {        // line 19: P ∪ X == ∅ ⇒ R maximal
      onClique(R)
      return
    }
    if (P.isEmpty) return                // only excluded vertices left — dead end
    // line 20: pivot u ∈ P ∪ X minimising |P \ N(u)| = maximising |P ∩ N(u)|,
    // the first strict maximum in P-then-X order. u ∉ N(u), so a u ∈ P
    // counts at most |P| - 1 and an X vertex at most |P|: the scans stop
    // once no later vertex can beat the best count.
    val p = P.cardinality
    var pivot = -1
    var best = -1
    val cP = P.cursor
    while (best < p - 1 && cP.hasNext) {
      val u = cP.next()
      val c = if (p == 1) 0 else P.intersectCount(neigh(u))
      if (c > best) { best = c; pivot = u }
    }
    val cX = X.cursor
    while (best < p && cX.hasNext) {
      val u = cX.next()
      val c = P.intersectCount(neigh(u))
      if (c > best) { best = c; pivot = u }
    }
    if (best == p) return                // an X vertex covers P: no candidates
    // line 21: candidates = P \ N(u); snapshot because P mutates in the loop.
    val candidates = P.diff(neigh(pivot)).toArray
    var i = 0
    while (i < candidates.length) {
      val v = candidates(i)
      val nv = neigh(v)
      R += v                             // R_new = R ∪ {v}
      bkPivot(P.intersect(nv), R, X.intersect(nv), neigh, onClique) // line 23-25
      R.remove(R.length - 1)
      P.remove(v)                        // line 28
      X.add(v)
      i += 1
    }
  }

  /** Run BK from a single outer-level seed (paper Alg. 6 lines 13-16):
    * R = {v}, P = later-ordered neighbors, X = earlier-ordered neighbors.
    */
  def fromSeed(v: Int, later: VertexSet, earlier: VertexSet,
               neigh: Int => VertexSet, onClique: ArrayBuffer[Int] => Unit): Unit = {
    val r = ArrayBuffer(v)
    bkPivot(later, r, earlier, neigh, onClique)
  }
}
