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
        assert(s.iterator.toSeq == ref.toSeq.sorted)
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

    for (op <- Seq("intersect", "union", "diff")) {
      test(s"${f.name}: $op matches reference on random pairs") {
        val rnd = new Random(op.hashCode)
        for (_ <- 0 until 40) {
          val ra = randomSet(rnd, 80)
          val rb = randomSet(rnd, 80)
          val a = mk(f, ra); val b = mk(f, rb)
          val (got, want) = op match {
            case "intersect" => (a.intersect(b), ra intersect rb)
            case "union"     => (a.union(b), ra union rb)
            case "diff"      => (a.diff(b), ra diff rb)
          }
          assert(got.toArray.toSeq == want.toSeq.sorted, s"$op of $ra / $rb")
          // operands unchanged (bulk ops return new sets)
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
      assert(small.intersect(big).toArray.toSeq == Seq(100, 200))
      assert(small.intersectCount(big) == 2)
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
