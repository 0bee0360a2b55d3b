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

  test("a deserialized index rejects add") {
    val back = HnswIndex.fromBytes(sampleIndex(100, 4).toBytes)
    intercept[IllegalStateException](back.add(9999L, Array(0f, 0f, 0f, 0f)))
    assert(back.size === 100)
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

  // SHA-256 of the top-10 results (ids and raw distance bits) of 100 seeded
  // queries at ef 1, 10 and 50 on each build above, recorded with a plain
  // greedy walk down the upper layers, which the width-1 beam search must
  // match exactly.
  private val searchDigests = Map(
    "l2/m4/gauss" -> "cf74cfc6c1de6f603db6d1d5ee3f8f174c0b66577d3e68228f062554b7e75752",
    "l2/m4/grid" -> "dad568b45a46e590930c6d4526ec133fb318ae4dd41115b0f6f33a861696ec4d",
    "l2/m4/x3" -> "5a159096e770014436578e7aaa50acf954551e5c3129cb7c4ea0ef0a7b877d75",
    "l2/m16/gauss" -> "7b84f2f52bf6cd9a6300229d9d8d22ec7c002736e4b2d160119b76732ac094ec",
    "l2/m16/grid" -> "7eab74a4a37373f5bcd1f3827c3821295d1dea36f4425a942be16ec51383a0ef",
    "l2/m16/x3" -> "29caea2cc9bf9b164b6c9433ac7f97ed1c129812955b45ddc005e5acc4205194",
    "cosine/m4/gauss" -> "914477b5e91efbe4aabf783eb9cae3d868b0527886a80314c8219388921aa7d5",
    "cosine/m4/grid" -> "2d95b049e5b1cf1a335aa251a976caceadbe30b25daab9fc8b25d759ecb41938",
    "cosine/m4/x3" -> "6ab64a6d06db2d97efa4f5a0d88842dd3a99c20cf9c23c28d48f5f1495a0cbb7",
    "cosine/m16/gauss" -> "1a02842a89defcedb6ae615d91720242aebeda6fb2c7118b782a686a48ae0d73",
    "cosine/m16/grid" -> "28b9e17c7d66f0cda3414971ec682ab6c290377b3aac6e6d1594b35f14e5e59a",
    "cosine/m16/x3" -> "4dc6b83edcd2eeb305b1727a705e50b61b81d1c3b4526bd5618149655d8a1d72",
  )

  private def sha256(bytes: Array[Byte]): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"$b%02x").mkString

  test("seeded builds write the recorded bytes") {
    val built = for {
      d    <- Seq[Distance](Distance.Euclidean, Distance.Cosine)
      m    <- Seq(4, 16)
      kind <- Seq("gauss", "grid", "x3")
    } yield {
      val p = HnswParams(m = m, efConstruction = 6 * m, efSearch = 40, seed = 9L)
      val dim = if (kind == "grid") 4 else 8
      val idx = HnswIndex.build(dim, d, p, goldenRows(kind))
      val rng = new java.util.Random(23L)
      val answers = java.nio.ByteBuffer.allocate(3 * 100 * 10 * 16)
      for (_ <- 0 until 100) {
        val q = Array.fill(dim)(if (kind == "grid") rng.nextInt(4).toFloat else rng.nextGaussian().toFloat)
        for (ef <- Seq(1, 10, 50); n <- idx.search(q, 10, ef))
          answers.putLong(n.id).putLong(java.lang.Double.doubleToRawLongBits(n.dist))
      }
      (s"${d.name}/m$m/$kind", sha256(idx.toBytes),
        sha256(java.util.Arrays.copyOf(answers.array, answers.position)))
    }
    assert(built.map(b => b._1 -> b._2).toMap === goldenDigests)
    assert(built.map(b => b._1 -> b._3).toMap === searchDigests)
  }

  test("corrupt magic is rejected") {
    val bytes = sampleIndex(10, 3).toBytes
    bytes(0) = 0x00
    intercept[IllegalArgumentException](HnswIndex.fromBytes(bytes))
  }

  /** Where `toBytes` of an index of dimension `dim` puts the header's entry
    * field, each node's level, and the count of each of its lists.
    */
  private final class Layout(val entryAt: Int, val levels: IndexedSeq[Int], val listAt: IndexedSeq[IndexedSeq[Int]])

  private def layout(bytes: Array[Byte], dim: Int): Layout = {
    val b = java.nio.ByteBuffer.wrap(bytes)
    val entryAt = 10 + b.getShort(8) + 24 // magic, dim, distance name, m, efC, efSearch, seed, n
    var pos = entryAt + 8
    val nodes = (0 until b.getInt(entryAt - 4)).map { _ =>
      val level = b.getInt(pos + 8)
      pos += 12 + 4 * dim
      level -> (0 to level).map { _ => val at = pos; pos += 4 + 4 * b.getInt(at); at }
    }
    new Layout(entryAt, nodes.map(_._1), nodes.map(_._2))
  }

  test("a corrupt index fails to load, naming the node and layer at fault") {
    val idx = sampleIndex(300, 4)
    val n = idx.size
    val bytes = idx.toBytes
    val at = layout(bytes, 4)
    def rejects(expected: String)(patch: java.nio.ByteBuffer => Unit): Unit = {
      val b = bytes.clone()
      patch(java.nio.ByteBuffer.wrap(b))
      val e = intercept[IllegalArgumentException](HnswIndex.fromBytes(b))
      assert(e.getMessage.contains(expected), e.getMessage)
    }
    def count(list: Int): Int = java.nio.ByteBuffer.wrap(bytes).getInt(list)
    assert(count(at.listAt(0)(0)) > 0)
    rejects(s"node 0 on layer 0 links to node $n of $n")(_.putInt(at.listAt(0)(0) + 4, n))
    rejects(s"node 0 on layer 0 links to node -3 of $n")(_.putInt(at.listAt(0)(0) + 4, -3))
    rejects(s"entry $n of $n nodes")(_.putInt(at.entryAt, n))
    rejects(s"not the top level ${idx.maxLevel + 1}")(_.putInt(at.entryAt + 4, idx.maxLevel + 1))
    val upper = (0 until n).find(i => at.levels(i) >= 1 && count(at.listAt(i)(1)) > 0).get
    val ground = at.levels.indexOf(0)
    rejects(s"node $ground of level 0 is linked to on layer 1")(_.putInt(at.listAt(upper)(1) + 4, ground))
  }

  test("a top level above any add can draw is rejected before anything is allocated") {
    val m16 = params.copy(m = 16)
    // A one-node index of dimension 1 at `level`, with an empty list on each
    // of the node's layers unless `header` asks for the first ~70 bytes only.
    def oneNode(level: Int, header: Boolean = false): Array[Byte] = {
      val bos = new java.io.ByteArrayOutputStream()
      val out = new java.io.DataOutputStream(bos)
      out.write(HnswIndex.empty(1, Distance.Euclidean, m16).toBytes, 0, 4) // magic
      out.writeInt(1); out.writeUTF(Distance.Euclidean.name)
      out.writeInt(m16.m); out.writeInt(m16.efConstruction); out.writeInt(m16.efSearch)
      out.writeLong(m16.seed)
      out.writeInt(1); out.writeInt(0); out.writeInt(level) // size, entry, top level
      out.writeLong(7L); out.writeInt(level); out.writeFloat(0.5f)
      if (!header) (0 to level).foreach(_ => out.writeInt(0))
      out.flush()
      bos.toByteArray
    }
    assert(HnswIndex.fromBytes(oneNode(249)).maxLevel === 249) // the highest add draws at m 16
    val huge = oneNode(20000000, header = true)
    assert(huge.length < 80)
    for ((level, bytes) <- Seq(250 -> oneNode(250), 20000000 -> huge)) {
      val e = intercept[IllegalArgumentException](HnswIndex.fromBytes(bytes))
      assert(e.getMessage.contains(s"top level $level above 249"), e.getMessage)
    }
    val file = java.nio.file.Files.createTempFile("top-level", ".hnsw")
    try {
      java.nio.file.Files.write(file, huge)
      val e = intercept[java.io.IOException](repro.lanns.Indexer.readIndexFile(file.toString))
      assert(e.getMessage.contains(file.toString) && e.getMessage.contains("top level 20000000"),
        e.getMessage)
    } finally java.nio.file.Files.delete(file)
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
