package repro.core

import repro.graph.SetGraph
import repro.setalg.{Scratch, VertexSet}
import scala.collection.mutable.ArrayBuffer

/** The recursive Bron-Kerbosch kernel with Tomita pivoting (paper Alg. 6,
  * lines 18-28), written *only* against the [[VertexSet]] interface of a
  * [[SetGraph]] — the paper's level-5+ modularity: swap the set
  * representation and the algorithm text does not change.
  */
object BronKerbosch {

  /** Run BK from a single outer-level seed (paper Alg. 6 lines 13-16):
    * R = {v}, P = later-ordered neighbors, X = earlier-ordered neighbors,
    * both ascending, over `sg`'s vertices and representation.
    *
    * @param onClique called with R's contents for every maximal clique
    */
  def fromSeed(v: Int, later: Array[Int], earlier: Array[Int], sg: SetGraph,
               onClique: ArrayBuffer[Int] => Unit): Unit = {
    val R = ArrayBuffer(v)               // the current clique, as a stack
    // A call at |R| = d writes its children's P and X into depth d's sets.
    val nextP = new Scratch(sg.factory, sg.n)
    val nextX = new Scratch(sg.factory, sg.n)

    /** BK-Pivot(P, R, X). P (candidates) and X (excluded vertices) belong
      * to this call, which mutates them.
      */
    def bkPivot(P: VertexSet, X: VertexSet): Unit = {
      if (P.isEmpty && X.isEmpty) {      // line 19: P ∪ X == ∅ ⇒ R maximal
        onClique(R)
        return
      }
      if (P.isEmpty) return              // only excluded vertices left — dead end
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
        val c = if (p == 1) 0 else P.intersectCount(sg.neighbors(u))
        if (c > best) { best = c; pivot = u }
      }
      val cX = X.cursor
      while (best < p && cX.hasNext) {
        val u = cX.next()
        val c = P.intersectCount(sg.neighbors(u))
        if (c > best) { best = c; pivot = u }
      }
      if (best == p) return              // an X vertex covers P: no candidates
      // line 21: candidates = P \ N(u); snapshot because P mutates in the loop.
      val candidates = P.diff(sg.neighbors(pivot)).toArray
      val childP = nextP(R.length); val childX = nextX(R.length)
      var i = 0
      while (i < candidates.length) {
        val v = candidates(i)
        val nv = sg.neighbors(v)
        R += v                           // R_new = R ∪ {v}
        P.intersectInto(nv, childP)      // line 23-25
        X.intersectInto(nv, childX)
        bkPivot(childP, childX)
        R.remove(R.length - 1)
        P.remove(v)                      // line 28
        X.add(v)
        i += 1
      }
    }

    bkPivot(sg.factory.fromSorted(later, sg.n), sg.factory.fromSorted(earlier, sg.n))
  }
}
