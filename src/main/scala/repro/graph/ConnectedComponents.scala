package repro.graph

/** Connected components on the collected CSR — the substrate for
  * Jarvis-Patrick clustering (§6.5). One O(n + m) pass: a BFS from each
  * still-unlabelled vertex, taken in ascending ID order, so every vertex is
  * labelled with the smallest vertex ID in its component.
  */
object ConnectedComponents {

  /** label(v) = the smallest vertex ID in v's component. */
  def run(g: LocalGraph): Array[Int] = {
    val label = Array.fill(g.n)(-1)
    val queue = new Array[Int](g.n)
    var s = 0
    while (s < g.n) {
      if (label(s) < 0) {
        label(s) = s; queue(0) = s
        var head = 0; var tail = 1
        while (head < tail) {
          val u = queue(head); head += 1
          var i = g.offsets(u)
          while (i < g.offsets(u + 1)) {
            val w = g.adj(i)
            if (label(w) < 0) { label(w) = s; queue(tail) = w; tail += 1 }
            i += 1
          }
        }
      }
      s += 1
    }
    label
  }
}
