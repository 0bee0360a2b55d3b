package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HnswSerializationSpec extends AnyFunSuite {

  private val params = HnswParams(m = 8, efConstruction = 60, efSearch = 40, seed = 5L)

  private def sampleIndex(n: Int, dim: Int, dist: Distance = Distance.Euclidean): HnswIndex = {
    val rng = new java.util.Random(1L)
    HnswIndex.build(dim, dist, params,
      (0 until n).iterator.map(i => i.toLong -> Array.fill(dim)(rng.nextFloat())))
  }

  test("roundtrip preserves size, dim, params and level structure") {
    val idx = sampleIndex(300, 6)
    val back = HnswIndex.fromBytes(idx.toBytes)
    assert(back.size === idx.size)
    assert(back.dim === idx.dim)
    assert(back.params === idx.params)
    assert(back.maxLevel === idx.maxLevel)
    assert(back.distance === idx.distance)
  }

  test("roundtrip preserves search results exactly") {
    val idx = sampleIndex(500, 8)
    val back = HnswIndex.fromBytes(idx.toBytes)
    val rng = new java.util.Random(2L)
    (0 until 20).foreach { _ =>
      val q = Array.fill(8)(rng.nextFloat())
      assert(back.search(q, 15).toSeq === idx.search(q, 15).toSeq)
    }
  }

  test("roundtrip preserves cosine-distance indexes") {
    val idx = sampleIndex(200, 5, Distance.Cosine)
    val back = HnswIndex.fromBytes(idx.toBytes)
    val q = Array(0.5f, 0.1f, 0.2f, 0.9f, 0.3f)
    assert(back.search(q, 10).toSeq === idx.search(q, 10).toSeq)
  }

  test("empty index roundtrips") {
    val idx = HnswIndex.empty(3, Distance.Euclidean, params)
    val back = HnswIndex.fromBytes(idx.toBytes)
    assert(back.size === 0)
    assert(back.search(Array(0f, 0f, 0f), 5).isEmpty)
  }

  test("deserialized index can keep growing") {
    val idx = sampleIndex(100, 4)
    val back = HnswIndex.fromBytes(idx.toBytes)
    back.add(9999L, Array(0f, 0f, 0f, 0f))
    val r = back.search(Array(0f, 0f, 0f, 0f), 1, ef = 50)
    assert(r.head.id === 9999L)
  }

  test("two builds with the same seed and insertion order are byte-identical") {
    Seq[Distance](Distance.Euclidean, Distance.Cosine).foreach { d =>
      assert(sampleIndex(400, 6, d).toBytes.sameElements(sampleIndex(400, 6, d).toBytes), d.name)
    }
  }

  test("corrupt magic is rejected") {
    val bytes = sampleIndex(10, 3).toBytes
    bytes(0) = 0x00
    intercept[IllegalArgumentException](HnswIndex.fromBytes(bytes))
  }

  test("external ids round-trip as written (not re-numbered)") {
    val idx = HnswIndex.empty(2, Distance.Euclidean, params)
    Seq(1000L, -5L, Long.MaxValue).zipWithIndex.foreach { case (id, i) =>
      idx.add(id, Array(i.toFloat, 0f))
    }
    val back = HnswIndex.fromBytes(idx.toBytes)
    val r = back.search(Array(0f, 0f), 3, ef = 10)
    assert(r.map(_.id).toSet === Set(1000L, -5L, Long.MaxValue))
  }

  test("serialized size grows linearly-ish with n") {
    val s100 = sampleIndex(100, 4).toBytes.length
    val s400 = sampleIndex(400, 4).toBytes.length
    assert(s400 > 2 * s100 && s400 < 8 * s100)
  }
}
