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

  /** Seeded inputs on which neighbour lists overflow many times: Gaussian
    * rows, rows on a small integer grid, and Gaussian rows each added three
    * times. The last two produce many equal distances, so the stored bytes
    * also pin how ties are ordered and pruned.
    */
  private def goldenRows(kind: String): Iterator[(Long, Array[Float])] = {
    val rng = new java.util.Random(17L)
    kind match {
      case "gauss" => (0 until 600).iterator.map(i => i.toLong -> Array.fill(8)(rng.nextGaussian().toFloat))
      case "grid"  => (0 until 600).iterator.map(i => i.toLong -> Array.fill(4)(rng.nextInt(4).toFloat))
      case "x3" =>
        val base = Array.fill(200)(Array.fill(8)(rng.nextGaussian().toFloat))
        (0 until 600).iterator.map(i => i.toLong -> base(i % 200))
    }
  }

  // SHA-256 of `toBytes`, recorded from the full-pass heuristic. Any change
  // to how lists are selected or re-pruned that alters the graph shows here.
  private val goldenDigests = Map(
    "l2/m4/gauss" -> "18aee1a4309cb5324c97b5087c28e11a1d7e8dc2f558d8cf6defcd243f88ce9d",
    "l2/m4/grid" -> "d0bcab6e2cbba05d7868c6136772db6012e617993e93a585db3c3f6e4c368e18",
    "l2/m4/x3" -> "58d1081ff950037c2ae6c52afc6012c12dfa47fbfdbacffa381bd187a37f019b",
    "l2/m16/gauss" -> "ad426ac3ee7fed5c76a1c462fa108607ebfe328f9e26061da9bcc0781e727386",
    "l2/m16/grid" -> "5036cb9dfbcafb29307b085c146acb6d95c258338fde13f743f6382808e8e01d",
    "l2/m16/x3" -> "9518e12676f995cfed0c6df9ede424ea3dee0eec4b72d44dc3db5cbb2737079b",
    "cosine/m4/gauss" -> "254ead1270d66fdb3771ae23b878fb14859245625cf4cf4e0f4ac6943e361d2c",
    "cosine/m4/grid" -> "d3c15619eec46e2d6249ebfe6a92ba3e7c4dc929ac532dab51645b0b914c5cf7",
    "cosine/m4/x3" -> "3f0ad7f469b8c4479385b646ec764d0704348baf1bf11780225acc7748b0e9b3",
    "cosine/m16/gauss" -> "c8d1a7e178e34f61ebcac0239eeecf432f4930d8980f208d3de50e86b7d3c812",
    "cosine/m16/grid" -> "f533924753874194ee5434c3bab8ffaca278850e840f1b0c0f682b8a7b7bff70",
    "cosine/m16/x3" -> "886dc0120a208e7287b6f65372a32aaefa240e70eb50ce927981b7b922f9b0b2",
  )

  test("seeded builds write the recorded bytes") {
    val actual = (for {
      d    <- Seq[Distance](Distance.Euclidean, Distance.Cosine)
      m    <- Seq(4, 16)
      kind <- Seq("gauss", "grid", "x3")
    } yield {
      val p = HnswParams(m = m, efConstruction = 6 * m, efSearch = 40, seed = 9L)
      val dim = if (kind == "grid") 4 else 8
      val bytes = HnswIndex.build(dim, d, p, goldenRows(kind)).toBytes
      val sha = java.security.MessageDigest.getInstance("SHA-256").digest(bytes)
      s"${d.name}/m$m/$kind" -> sha.map(b => f"$b%02x").mkString
    }).toMap
    assert(actual === goldenDigests)
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
