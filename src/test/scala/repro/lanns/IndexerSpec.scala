package repro.lanns

import java.nio.file.Files
import repro.{SparkSpec, VectorData}
import repro.core.{Distance, HnswParams, VecRow}
import repro.segment.{RandomSegmenter, Segmenter, SegmenterLearner}

class IndexerSpec extends SparkSpec {

  private val params = HnswParams(m = 8, efConstruction = 50, efSearch = 40, seed = 1L)

  private def tmpDir(): String =
    Files.createTempDirectory("lanns-indexer").toString

  test("builds one index per (shard, segment) pair") {
    val data = VectorData.clustered(spark, 800, 8, 5, seed = 1L)
    val dir = tmpDir()
    val meta = Indexer.build(data, 8, numShards = 2, new RandomSegmenter(3), Distance.Euclidean,
      params, dir, numExecutors = 4)
    assert(meta.indexes.size === 6)
    assert(meta.indexes.map(m => (m.shard, m.segment)).toSet ===
      (for (s <- 0 until 2; g <- 0 until 3) yield (s, g)).toSet)
  }

  test("every row is indexed exactly once under virtual spill") {
    val data = VectorData.clustered(spark, 1000, 8, 5, seed = 2L)
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(4), Distance.Euclidean,
      params, tmpDir(), 4)
    assert(meta.totalCount === 1000L)
  }

  test("physical spill indexes boundary rows more than once") {
    val data = VectorData.clustered(spark, 2000, 8, 6, seed = 3L)
    val sample = SegmenterLearner.sample(data, 2000, 1L)
    val seg = SegmenterLearner.learnRH(sample, 8, depth = 1, alpha = 0.15).withPhysicalSpill(true)
    val meta = Indexer.build(data, 8, 1, seg, Distance.Euclidean, params, tmpDir(), 4)
    assert(meta.totalCount > 2000L, s"no duplication: ${meta.totalCount}")
    assert(meta.totalCount < 3200L, s"excessive duplication: ${meta.totalCount}")
  }

  test("index files exist on disk and deserialize to searchable indices") {
    val data = VectorData.clustered(spark, 600, 8, 4, seed = 4L)
    val dir = tmpDir()
    val meta = Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean,
      params, dir, 2)
    meta.indexes.foreach { im =>
      assert(new java.io.File(im.path).isFile, s"missing ${im.path}")
      val idx = Indexer.readIndexFile(im.path)
      assert(idx.size.toLong === im.count)
      assert(idx.search(Array.fill(8)(0f), 3).nonEmpty)
    }
  }

  test("an index file with the pre-unit-vector magic fails to load, naming its path") {
    val idx = repro.core.HnswIndex.build(3, Distance.Cosine, params,
      Iterator(1L -> Array(1f, 0f, 0f), 2L -> Array(0f, 2f, 0f)))
    val bytes = idx.toBytes
    java.nio.ByteBuffer.wrap(bytes).putInt(0, 0x4C414E53) // "LANS", the previous format
    val path = Files.createTempDirectory("lanns-old-magic").resolve("segment_0.hnsw")
    Files.write(path, bytes)
    val e = intercept[java.io.IOException](Indexer.readIndexFile(path.toString))
    assert(e.getMessage.contains(path.toString), e.getMessage)
  }

  test("a truncated index file fails to load, naming its path") {
    val idx = repro.core.HnswIndex.build(3, Distance.Euclidean, params,
      (0 until 50).iterator.map(i => i.toLong -> Array(i.toFloat, 0f, 1f)))
    val bytes = idx.toBytes
    val path = Files.createTempDirectory("lanns-torn").resolve("segment_0.hnsw")
    Files.write(path, java.util.Arrays.copyOf(bytes, bytes.length - 5))
    val e = intercept[java.io.IOException](Indexer.readIndexFile(path.toString))
    assert(e.getMessage.contains(path.toString), e.getMessage)
  }

  test("a truncated meta file fails to load, naming its path") {
    val data = VectorData.clustered(spark, 200, 8, 4, seed = 11L)
    val dir = tmpDir()
    Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean, params, dir, 2)
    val path = java.nio.file.Paths.get(dir, LannsMeta.FileName)
    val bytes = Files.readAllBytes(path)
    Files.write(path, java.util.Arrays.copyOf(bytes, bytes.length / 2))
    val e = intercept[java.io.IOException](LannsMeta.read(dir))
    assert(e.getMessage.contains(path.toString), e.getMessage)
  }

  test("a failed meta write leaves the previous meta file and no temporary file") {
    val data = VectorData.clustered(spark, 200, 8, 4, seed = 14L)
    val dir = tmpDir()
    val meta = Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean, params, dir, 2)
    val unserializable = new Segmenter {
      val state = new Object // not Serializable
      def numSegments: Int = 2
      def routeData(id: Long, vec: Array[Float]): Array[Int] = Array(0)
      def routeQuery(vec: Array[Float]): Array[Int] = Array(0, 1)
    }
    intercept[java.io.IOException](LannsMeta.write(meta.copy(segmenter = unserializable), dir))
    val back = LannsMeta.read(dir)
    assert(back.segmenter.isInstanceOf[RandomSegmenter])
    assert(back.copy(segmenter = meta.segmenter) === meta)
    val files = Files.walk(java.nio.file.Paths.get(dir)).filter(Files.isRegularFile(_)).toArray
      .map(_.toString).toSet
    assert(files === meta.indexes.map(_.path).toSet + java.nio.file.Paths.get(dir, LannsMeta.FileName).toString)
  }

  test("build names a shard or executor count below 1") {
    val data = VectorData.clustered(spark, 10, 8, 2, seed = 15L)
    def build(shards: Int, executors: Int) = intercept[IllegalArgumentException](
      Indexer.build(data, 8, shards, new RandomSegmenter(1), Distance.Euclidean, params, tmpDir(), executors))
    assert(build(0, 1).getMessage.contains("numShards must be >= 1, got 0"))
    assert(build(1, 0).getMessage.contains("numExecutors must be >= 1, got 0"))
  }

  test("metadata round-trips through the driver-written meta file") {
    val data = VectorData.clustered(spark, 300, 8, 4, seed = 5L)
    val dir = tmpDir()
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(2, seed = 9L), Distance.Euclidean,
      params, dir, 2)
    val back = LannsMeta.read(dir)
    assert(back.dim === 8)
    assert(back.numShards === 2)
    assert(back.distanceName === "l2")
    assert(back.params === params)
    assert(back.numSegments === 2)
    assert(back.indexes === meta.indexes)
  }

  test("a moved index directory reads its own files and answers as before") {
    val data = VectorData.clustered(spark, 600, 8, 4, seed = 12L)
    val queries = VectorData.clusteredQueries(spark, 20, 8, 4, seed = 12L)
    val parent = Files.createTempDirectory("lanns-move")
    val dir = parent.resolve("built")
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(2, seed = 3L), Distance.Euclidean,
      params, dir.toString, 2)
    def rows(m: LannsMeta) = Querier.search(queries, m, 5, 40, None, 2)
      .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
    val before = rows(meta)
    val moved = Files.move(dir, parent.resolve("moved"))
    val back = LannsMeta.read(moved.toString)
    back.indexes.foreach(im =>
      assert(im.path.startsWith(moved.toString + java.io.File.separator), im.path))
    assert(back.indexes.map(_.copy(path = "")) === meta.indexes.map(_.copy(path = "")))
    assert(rows(back) === before)
  }

  test("a learnt segmenter survives meta serialization and routes identically") {
    val data = VectorData.clustered(spark, 800, 8, 4, seed = 6L)
    val sample = SegmenterLearner.sample(data, 800, 2L)
    val seg = SegmenterLearner.learnAPD(sample, 8, depth = 2, alpha = 0.1)
    val dir = tmpDir()
    Indexer.build(data, 8, 1, seg, Distance.Euclidean, params, dir, 2)
    val back = LannsMeta.read(dir).segmenter
    val rng = new java.util.Random(3L)
    (0 until 50).foreach { _ =>
      val v = Array.fill(8)(rng.nextFloat())
      assert(back.routeQuery(v).toSeq === seg.routeQuery(v).toSeq)
    }
  }

  test("per-index counts sum over the hash-sharded split") {
    val data = VectorData.clustered(spark, 1200, 8, 4, seed = 7L)
    val meta = Indexer.build(data, 8, 3, new RandomSegmenter(1), Distance.Euclidean,
      params, tmpDir(), 3)
    // shard sizes follow the id-hash split
    val expected = (0L until 1200L).groupBy(Sharding.shardOf(_, 3)).view.mapValues(_.size).toMap
    meta.indexes.foreach(im => assert(im.count === expected(im.shard).toLong))
  }

  test("executor slotting does not change what gets indexed") {
    val data = VectorData.clustered(spark, 900, 8, 4, seed = 8L)
    val m1 = Indexer.build(data, 8, 2, new RandomSegmenter(4, 5L), Distance.Euclidean,
      params, tmpDir(), numExecutors = 1)
    val m8 = Indexer.build(data, 8, 2, new RandomSegmenter(4, 5L), Distance.Euclidean,
      params, tmpDir(), numExecutors = 8)
    val c1 = m1.indexes.map(im => (im.shard, im.segment) -> im.count).toMap
    val c8 = m8.indexes.map(im => (im.shard, im.segment) -> im.count).toMap
    assert(c1 === c8)
  }

  test("the same rows give the same index bytes whatever the slots and input partitions") {
    val data = VectorData.clustered(spark, 1200, 8, 4, seed = 13L).cache()
    /** Each index file's SHA-256, by its path under the index directory. */
    def files(e: Int, inputPartitions: Int): Map[String, String] = {
      val dir = tmpDir()
      val meta = Indexer.build(data.repartition(inputPartitions), 8, 2,
        new RandomSegmenter(3, 4L), Distance.Euclidean, params, dir, e)
      meta.indexes.map { im =>
        val bytes = Files.readAllBytes(java.nio.file.Paths.get(im.path))
        im.path.stripPrefix(dir) ->
          java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString
      }.toMap
    }
    val ref = files(1, 1)
    assert(ref.size === 6)
    for (e <- Seq(1, 2, 8); p <- Seq(1, 5))
      assert(files(e, p) === ref, s"E = $e, input partitions = $p")
    data.unpersist()
  }

  test("empty (shard, segment) groups yield no index files") {
    // 1 row, 4 shards x 4 segments: at most one group non-empty
    val data = VectorData.clustered(spark, 1, 8, 2, seed = 9L)
    val meta = Indexer.build(data, 8, 4, new RandomSegmenter(4), Distance.Euclidean,
      params, tmpDir(), 4)
    assert(meta.indexes.size === 1)
    assert(meta.totalCount === 1L)
  }

  /** Builds an index over `vecs` (the row with id 4242 is the bad one) and
    * asserts that it fails with an error naming row id 4242.
    */
  private def assertRejects(vecs: Seq[(Long, Array[Float])]): Unit = {
    import spark.implicits._
    val data = vecs.map { case (id, v) => VecRow(id, v) }.toDS()
    val e = intercept[Exception](Indexer.build(data, 8, 2, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir(), 2))
    val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(chain.exists(t => Option(t.getMessage).exists(_.contains("row id 4242"))), e)
  }

  private val good = Array.fill(8)(0.5f)

  test("build rejects a row of the wrong dimension, naming its id") {
    assertRejects(Seq(1L -> good, 4242L -> Array.fill(9)(0.5f)))
    assertRejects(Seq(4242L -> Array.fill(7)(0.5f), 2L -> good))
  }

  test("build rejects a row with a NaN component, naming its id") {
    assertRejects(Seq(1L -> good, 4242L -> good.updated(5, Float.NaN)))
  }

  test("build rejects a row with an infinite component, naming its id") {
    assertRejects(Seq(1L -> good, 4242L -> good.updated(0, Float.PositiveInfinity)))
    assertRejects(Seq(4242L -> good.updated(7, Float.NegativeInfinity)))
  }

  test("build times are recorded per index") {
    val data = VectorData.clustered(spark, 500, 8, 4, seed = 10L)
    val meta = Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir(), 2)
    meta.indexes.foreach(im => assert(im.buildMillis >= 0))
  }
}
