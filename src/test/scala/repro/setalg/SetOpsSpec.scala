package repro.setalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Exhaustive cross-checks of all four set representations against Scala's
  * immutable Set as the reference semantics — the level-5+ contract: any
  * representation must be swappable without changing algorithm results.
  * Both operands of a bulk operation come from one factory, as in a SetGraph.
  */
class SetOpsSpec extends AnyFunSuite {

  private val universe = 256

  private def randomSet(rnd: Random, maxSize: Int): Set[Int] =
    (0 until rnd.nextInt(maxSize + 1)).map(_ => rnd.nextInt(universe)).toSet

  private def mk(f: SetFactory, s: Set[Int]): VertexSet =
    f.fromSorted(s.toArray.sorted, universe)

  /** The elements, read through the unboxed cursor. */
  private def read(s: VertexSet): Seq[Int] = {
    val out = Seq.newBuilder[Int]
    val c = s.cursor
    while (c.hasNext) out += c.next()
    out.result()
  }

  /** `s` holds exactly `want`, by every read: no stale element is left. */
  private def assertHolds(s: VertexSet, want: Set[Int], clue: => String): Unit = {
    val sorted = want.toSeq.sorted
    assert(s.cardinality == want.size, clue)
    assert(s.toArray.toSeq == sorted, clue)
    assert(read(s) == sorted, clue)
    assert((0 until universe).filter(s.contains) == sorted, clue)
  }

  for (f <- SetFactory.all) {

    test(s"${f.name}: empty set basics") {
      val e = f.fromSorted(Array.emptyIntArray, universe)
      assert(e.cardinality == 0)
      assert(e.isEmpty)
      assert(!e.contains(0))
      assert(e.toArray.isEmpty)
    }

    test(s"${f.name}: singleton") {
      val s = f.fromSorted(Array(7), universe)
      assert(s.cardinality == 1)
      assert(s.contains(7))
      assert(!s.contains(8))
      assert(s.toArray.toSeq == Seq(7))
    }

    test(s"${f.name}: fromSorted round-trips and iterates ascending") {
      val rnd = new Random(1)
      for (_ <- 0 until 20) {
        val ref = randomSet(rnd, 64)
        val s = mk(f, ref)
        assert(s.cardinality == ref.size)
        assert(s.toArray.toSeq == ref.toSeq.sorted)
        assert(read(s) == ref.toSeq.sorted)
      }
    }

    test(s"${f.name}: contains matches reference") {
      val rnd = new Random(2)
      for (_ <- 0 until 10) {
        val ref = randomSet(rnd, 64)
        val s = mk(f, ref)
        for (v <- 0 until universe) assert(s.contains(v) == ref.contains(v))
      }
    }

    /** A ∩ B through `intersectInto`, into a fresh destination. */
    def intersect(a: VertexSet, b: VertexSet): VertexSet = {
      val dst = f.empty(universe)
      a.intersectInto(b, dst)
      dst
    }

    for (op <- Seq("intersect", "diff")) {
      test(s"${f.name}: $op matches reference on random pairs") {
        val rnd = new Random(op.hashCode)
        for (_ <- 0 until 40) {
          val ra = randomSet(rnd, 80)
          val rb = randomSet(rnd, 80)
          val a = mk(f, ra); val b = mk(f, rb)
          val (got, want) = op match {
            case "intersect" => (intersect(a, b), ra intersect rb)
            case "diff"      => (a.diff(b), ra diff rb)
          }
          assert(got.toArray.toSeq == want.toSeq.sorted, s"$op of $ra / $rb")
          // operands unchanged
          assert(a.toArray.toSeq == ra.toSeq.sorted)
          assert(b.toArray.toSeq == rb.toSeq.sorted)
        }
      }
    }

    test(s"${f.name}: intersectCount matches the materialised size") {
      val rnd = new Random(4)
      for (_ <- 0 until 40) {
        val ra = randomSet(rnd, 80); val rb = randomSet(rnd, 80)
        val a = mk(f, ra); val b = mk(f, rb)
        assert(a.intersectCount(b) == (ra intersect rb).size)
      }
    }

    test(s"${f.name}: lopsided intersect exercises the galloping path") {
      val small = mk(f, Set(3, 100, 200))
      val big = mk(f, (0 until universe by 2).toSet)
      assert(intersect(small, big).toArray.toSeq == Seq(100, 200))
      assert(intersect(big, small).toArray.toSeq == Seq(100, 200))
      assert(small.intersectCount(big) == 2)
    }

    test(s"${f.name}: intersectInto equals intersect, one destination as results shrink and grow") {
      val rnd = new Random(8)
      val dst = f.empty(universe)
      // Operand sizes fall to 0 and rise again; a small one against a large
      // one also takes the galloping path.
      val sizes = (200 to 0 by -20) ++ (0 to 200 by 20) ++ Seq(2, 250, 5, 250)
      for (size <- sizes) {
        val ra = randomSet(rnd, size); val rb = randomSet(rnd, 250)
        val a = mk(f, ra); val b = mk(f, rb)
        a.intersectInto(b, dst)
        assertHolds(dst, ra intersect rb, s"$ra ∩ $rb")
        assert(dst.toArray.toSeq == intersect(a, b).toArray.toSeq)
        assertHolds(a, ra, "receiver unchanged")
        assertHolds(b, rb, "operand unchanged")
      }
    }

    test(s"${f.name}: intersectInto with the receiver as destination") {
      val rnd = new Random(9)
      val pairs = Seq.fill(20)((randomSet(rnd, 120), randomSet(rnd, 120))) ++
        Seq((Set(3, 100, 200), (0 until universe by 2).toSet), ((0 until universe by 2).toSet, Set(3, 100, 200)))
      for ((ra, rb) <- pairs) {
        val a = mk(f, ra); val b = mk(f, rb)
        a.intersectInto(b, a)
        assertHolds(a, ra intersect rb, s"$ra ∩= $rb")
        assertHolds(b, rb, "operand unchanged")
      }
    }

    test(s"${f.name}: intersectInto with empty operands") {
      val full = Set(1, 5, 64, 200)
      val dst = mk(f, Set(2, 7, 130))
      mk(f, Set.empty).intersectInto(mk(f, full), dst)
      assertHolds(dst, Set.empty, "∅ ∩ A")
      val a = mk(f, full)
      a.intersectInto(f.empty(universe), dst)
      assertHolds(dst, Set.empty, "A ∩ ∅")
      a.intersectInto(mk(f, Set(5, 200, 201)), dst)
      assertHolds(dst, Set(5, 200), "A ∩ B after ∅")
      val e = f.empty(universe)
      e.intersectInto(e, e)
      assertHolds(e, Set.empty, "∅ ∩= ∅")
      a.intersectInto(f.empty(universe), a)
      assertHolds(a, Set.empty, "A ∩= ∅")
    }

    test(s"${f.name}: add / remove single elements") {
      val rnd = new Random(6)
      var ref = Set.empty[Int]
      val s = f.fromSorted(Array.emptyIntArray, universe)
      for (_ <- 0 until 300) {
        val v = rnd.nextInt(universe)
        if (rnd.nextBoolean()) { s.add(v); ref += v }
        else { s.remove(v); ref -= v }
        assert(s.cardinality == ref.size)
      }
      assert(s.toArray.toSeq == ref.toSeq.sorted)
    }

    test(s"${f.name}: add is idempotent, remove of absent is a no-op") {
      val s = mk(f, Set(1, 2, 3))
      s.add(2)
      assert(s.cardinality == 3)
      s.remove(99)
      assert(s.cardinality == 3)
      assert(s.toArray.toSeq == Seq(1, 2, 3))
    }
  }

  test("DenseBitSet.fromSorted rejects elements outside the universe") {
    assertThrows[IllegalArgumentException](DenseBitSet.fromSorted(Array(3, universe), universe))
    assertThrows[IllegalArgumentException](DenseBitSet.fromSorted(Array(-1, 3), universe))
    assert(DenseBitSet.fromSorted(Array(0, universe - 1), universe).toArray.toSeq == Seq(0, universe - 1))
  }

  test("hash set survives heavy churn (backward-shift deletion)") {
    val rnd = new Random(7)
    val s = HashVertexSet.fromSorted(Array.emptyIntArray, universe)
    var ref = Set.empty[Int]
    for (i <- 0 until 5000) {
      val v = rnd.nextInt(64) // dense collisions
      if (i % 3 == 0) { s.remove(v); ref -= v } else { s.add(v); ref += v }
    }
    assert(s.toArray.toSeq == ref.toSeq.sorted)
  }
}
