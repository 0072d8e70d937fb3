package repro.graph

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.setalg.SetFactory

class SetGraphSpec extends AnyFunSuite {

  private val g = GraphGen.erLocal(30, 0.3, 3)

  for (f <- SetFactory.all) {
    test(s"${f.name}: neighborhoods match the CSR and are built once") {
      val sg = new SetGraph(g, f)
      for (v <- 0 until g.n) {
        assert(sg.neighbors(v).toArray.toSeq == g.neighbors(v).toSeq)
        assert(sg.neighbors(v) eq sg.neighbors(v))
      }
    }
  }

  test("threads racing on one SetGraph all get the same set per vertex") {
    val sg = new SetGraph(g, SetFactory.roaring)
    val got = Array.ofDim[AnyRef](8, g.n)
    val threads = (0 until 8).map(t =>
      new Thread(() => (0 until g.n).foreach(v => got(t)(v) = sg.neighbors(v))))
    threads.foreach(_.start()); threads.foreach(_.join())
    for (t <- 1 until 8; v <- 0 until g.n) assert(got(t)(v) eq got(0)(v))
  }

  private def serialize(o: AnyRef): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(buf)
    out.writeObject(o); out.close()
    buf.toByteArray
  }

  test("a serialized SetGraph carries the CSR, not the built sets") {
    val sg = new SetGraph(g, SetFactory.sorted)
    val bare = serialize(sg)
    (0 until g.n).foreach(sg.neighbors)
    val touched = serialize(sg)
    assert(touched.length == bare.length)
    val copy = new ObjectInputStream(new ByteArrayInputStream(touched)).readObject().asInstanceOf[SetGraph]
    assert(copy.neighbors(5).toArray.toSeq == g.neighbors(5).toSeq)
  }
}
