package repro.lanns

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.CoalesceExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}
import repro.{Oracle, SparkSpec, VectorData}
import repro.core.{Distance, Hit, HitList, HnswParams, QueryRow, TopK}
import repro.eval.Recall
import repro.segment.{RandomSegmenter, SegmenterLearner}

class QuerierSpec extends SparkSpec {

  private val params = HnswParams(m = 8, efConstruction = 60, efSearch = 60, seed = 1L)

  private def tmpDir(prefix: String): String =
    Files.createTempDirectory(prefix).toString

  test("two-level merge matches the DuckDB oracle") {
    import spark.implicits._
    // hand-built partial hits: 2 queries, 2 shards, 2 segments each
    val hits = Seq(
      // qid, shard, segment, id, dist
      (1L, 0, 0, 10L, 1.5), (1L, 0, 1, 11L, 0.5), (1L, 0, 1, 12L, 2.5),
      (1L, 1, 0, 20L, 1.0), (1L, 1, 1, 21L, 3.0), (1L, 1, 0, 22L, 0.25),
      (2L, 0, 0, 10L, 4.0), (2L, 0, 1, 10L, 3.5), // same id from two segments
      (2L, 1, 0, 30L, 0.75), (2L, 1, 1, 31L, 1.25),
    ).toDF("qid", "shard", "segment", "id", "dist")

    val merged = Querier.mergeHits(hits, kShard = 2, topK = 3)
    Oracle.assertEquivalent(
      merged,
      """WITH sb AS (
        |  SELECT CAST(qid AS BIGINT) AS qid, CAST(shard AS INT) AS shard,
        |         CAST(id AS BIGINT) AS id, MIN(CAST(dist AS DOUBLE)) AS dist
        |  FROM hits GROUP BY 1, 2, 3),
        |sr AS (
        |  SELECT qid, shard, id, dist,
        |         row_number() OVER (PARTITION BY qid, shard ORDER BY dist, id) AS rn
        |  FROM sb)
        |SELECT qid, id, dist, rank FROM (
        |  SELECT qid, id, dist,
        |         row_number() OVER (PARTITION BY qid ORDER BY dist, id) AS rank
        |  FROM sr WHERE rn <= 2)
        |WHERE rank <= 3""".stripMargin,
      "hits" -> hits,
    )
  }

  /** Seeded partial hits with many ties: ~600 hits over 20 qids, 3 shards and
    * 4 segments, integer distances 0..9, ids repeated across the segments of
    * one shard, and shards with anywhere from 0 to 20 hits. Each id lives in
    * one shard (id mod 3), as sharding guarantees.
    */
  private def randomHits(seed: Long): DataFrame = {
    import spark.implicits._
    val rnd = new scala.util.Random(seed)
    val hits = for {
      qid <- 0L until 20L
      shard <- 0 until 3
      _ <- 0 until rnd.nextInt(21)
    } yield Hit(qid, shard, rnd.nextInt(4), shard + 3L * rnd.nextInt(8), rnd.nextInt(10).toDouble)
    hits.toDF()
  }

  test("two-level merge matches the DuckDB oracle on seeded hits with ties and duplicates") {
    val topK = 6
    for (seed <- Seq(1L, 2L, 3L); kShard <- Seq(1, 3, topK)) {
      val hits = randomHits(seed)
      Oracle.assertEquivalent(
        Querier.mergeHits(hits, kShard, topK),
        s"""WITH sb AS (
           |  SELECT CAST(qid AS BIGINT) AS qid, CAST(shard AS INT) AS shard,
           |         CAST(id AS BIGINT) AS id, MIN(CAST(dist AS DOUBLE)) AS dist
           |  FROM hits GROUP BY 1, 2, 3),
           |sr AS (
           |  SELECT qid, shard, id, dist,
           |         row_number() OVER (PARTITION BY qid, shard ORDER BY dist, id) AS rn
           |  FROM sb)
           |SELECT qid, id, dist, rank FROM (
           |  SELECT qid, id, dist,
           |         row_number() OVER (PARTITION BY qid ORDER BY dist, id) AS rank
           |  FROM sr WHERE rn <= $kShard)
           |WHERE rank <= $topK""".stripMargin,
        "hits" -> hits,
      )
    }
  }

  test("the list merge equals mergeHits on the same hits split into random lists") {
    import spark.implicits._
    def rows(df: DataFrame) = df.orderBy("qid", "rank").collect().toSeq
    for (seed <- Seq(1L, 2L, 3L); kShard <- Seq(1, 3, 6)) {
      val hits = randomHits(seed)
      val rnd = new scala.util.Random(seed)
      // each (qid, shard)'s hits, shuffled and cut into lists of 0 to 7 hits,
      // each list sorted by (dist, id) as every HitList is
      val lists = hits.as[Hit].collect().groupBy(h => (h.qid, h.shard)).toSeq.flatMap {
        case ((qid, shard), hs) =>
          Iterator.unfold(rnd.shuffle(hs.toSeq)) { rest =>
            Option.when(rest.nonEmpty) { val (l, more) = rest.splitAt(rnd.nextInt(8)); (l, more) }
          }.map(_.sortWith((a, b) => TopK.before(a.dist, a.id, b.dist, b.id)))
            .map(l => HitList(qid, shard, l.map(_.id).toArray, l.map(_.dist).toArray))
      }
      assert(rows(Querier.mergeLists(rnd.shuffle(lists).toDF(), kShard, 6, 1)) ===
        rows(Querier.mergeHits(hits, kShard, 6)), s"seed $seed kShard $kShard")
    }
  }

  test("the merge rejects kShard or topK below 1, naming the value") {
    import spark.implicits._
    val hits = randomHits(5L)
    val lists = Seq(HitList(1L, 0, Array(1L), Array(1.0))).toDF()
    def message(merge: => DataFrame): String = intercept[IllegalArgumentException](merge).getMessage
    assert(message(Querier.mergeHits(hits, kShard = 0, topK = 3)).contains("kShard must be >= 1, got 0"))
    assert(message(Querier.mergeHits(hits, kShard = 2, topK = -2)).contains("topK must be >= 1, got -2"))
    assert(message(Querier.mergeLists(lists, kShard = -1, topK = 3, numPartitions = 1))
      .contains("kShard must be >= 1, got -1"))
    assert(message(Querier.mergeLists(lists, kShard = 2, topK = 0, numPartitions = 1))
      .contains("topK must be >= 1, got 0"))
  }

  test("the merge orders distances as Spark SQL does: -0.0 equals 0.0, NaN after every number") {
    import spark.implicits._
    val nan = Double.NaN
    // each list in TopK.before order, as every HitList is
    val lists = Seq(
      HitList(1L, 0, Array(3L, 7L, 5L), Array(0.0, -0.0, 1.0)), // a ±0.0 tie goes to the smaller id
      HitList(2L, 0, Array(6L, 4L), Array(1.0, nan)), // NaN after every number
      HitList(2L, 1, Array(2L), Array(0.0)),
      HitList(3L, 0, Array(8L), Array(nan)), // the number copy of id 8 is nearer
      HitList(3L, 0, Array(9L, 8L), Array(0.0, 1.0)),
      HitList(4L, 0, Array(9L, 8L), Array(0.0, 1.0)),
      HitList(4L, 0, Array(8L), Array(nan)),
      HitList(5L, 0, Array(1L, 2L), Array(nan, nan)), // a full shard of NaNs admits a number
      HitList(5L, 0, Array(3L), Array(1.0)),
    ).toDF()
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    val rows = Querier.mergeLists(lists, kShard = 2, topK = 3, numPartitions = 1).collect()
      .map(r => (r.getLong(0), r.getLong(1), bits(r.getDouble(2)), r.getInt(3))).toSeq.sorted
    assert(rows === Seq(
      (1L, 3L, bits(0.0), 1), (1L, 7L, bits(-0.0), 2),
      (2L, 2L, bits(0.0), 1), (2L, 4L, bits(nan), 3), (2L, 6L, bits(1.0), 2),
      (3L, 8L, bits(1.0), 2), (3L, 9L, bits(0.0), 1),
      (4L, 8L, bits(1.0), 2), (4L, 9L, bits(0.0), 1),
      (5L, 1L, bits(nan), 2), (5L, 3L, bits(1.0), 1),
    ))
  }

  test("the merge keeps an id once per shard, but once for each shard that returns it") {
    import spark.implicits._
    val lists = Seq(
      HitList(1L, 0, Array(5L, 6L), Array(1.0, 3.0)),
      HitList(1L, 0, Array(5L), Array(0.5)),
      HitList(1L, 1, Array(5L, 7L), Array(2.0, 4.0)),
    ).toDF()
    val rows = Querier.mergeLists(lists, kShard = 2, topK = 3, numPartitions = 1).orderBy("rank").collect()
      .map(r => (r.getLong(1), r.getDouble(2), r.getInt(3))).toSeq
    assert(rows === Seq((5L, 0.5, 1), (5L, 2.0, 2), (6L, 3.0, 3)))
  }

  test("two-level merge is one shuffle on qid and keeps its schema when empty") {
    import spark.implicits._
    val merged = Querier.mergeHits(randomHits(4L), kShard = 3, topK = 6)
    merged.collect() // fixes the adaptive plan
    val shuffles = new AdaptiveSparkPlanHelper {}
      .collect(merged.queryExecution.executedPlan) { case e: ShuffleExchangeLike => e }
    assert(shuffles.size === 1, merged.queryExecution.executedPlan.treeString)

    assert(merged.schema.map(f => f.name -> f.dataType) ===
      Seq("qid" -> LongType, "id" -> LongType, "dist" -> DoubleType, "rank" -> IntegerType))
    assert(!merged.schema("rank").nullable)
    val empty = Querier.mergeHits(spark.emptyDataset[Hit].toDF(), kShard = 3, topK = 6)
    assert(empty.collect().isEmpty)
    assert(empty.schema === merged.schema)
  }

  test("search shuffles only to merge, never with one slot, and keeps its schema when empty") {
    import spark.implicits._
    def shuffles(df: DataFrame): Int = {
      df.collect() // fixes the adaptive plan
      new AdaptiveSparkPlanHelper {}
        .collect(df.queryExecution.executedPlan) { case e: ShuffleExchangeLike => e }.size
    }
    val data = VectorData.clustered(spark, 800, 8, 4, seed = 14L)
    val queries = VectorData.clusteredQueries(spark, 20, 8, 4, seed = 14L)
    val one = Indexer.build(data, 8, 1, new RandomSegmenter(1), Distance.Euclidean,
      params, tmpDir("q-plan1"), 1)
    val oneSlot = Querier.search(queries, one, 5, 60, None, 1)
    assert(shuffles(oneSlot) === 0, oneSlot.queryExecution.executedPlan.treeString)
    // one task, which reads the queries inside the plan: nothing is collected to the driver
    val coalesced = new AdaptiveSparkPlanHelper {}
      .collect(oneSlot.queryExecution.executedPlan) { case c: CoalesceExec => c.numPartitions }
    assert(coalesced === Seq(1), oneSlot.queryExecution.executedPlan.treeString)
    assert(oneSlot.rdd.getNumPartitions === 1)
    val eight = Indexer.build(data, 8, 2, new RandomSegmenter(4), Distance.Euclidean,
      params, tmpDir("q-plan8"), 3)
    val threeSlots = Querier.search(queries, eight, 5, 60, None, 3)
    assert(shuffles(threeSlots) === 1, threeSlots.queryExecution.executedPlan.treeString)
    assert(threeSlots.rdd.getNumPartitions === 3) // the merge is E wide, whatever the session's width

    for ((meta, e) <- Seq(one -> 1, eight -> 3)) {
      val empty = Querier.search(spark.emptyDataset[QueryRow], meta, 5, 60, None, e)
      assert(empty.collect().isEmpty)
      assert(empty.schema.map(f => f.name -> f.dataType) ===
        Seq("qid" -> LongType, "id" -> LongType, "dist" -> DoubleType, "rank" -> IntegerType))
    }
  }

  private lazy val smallIndex = {
    val data = VectorData.clustered(spark, 300, 8, 3, seed = 12L)
    Indexer.build(data, 8, 2, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir("q-valid"), 2)
  }

  /** Runs a search over `vecs` (the query with qid 4242 is the bad one) at
    * one slot, which checks the queries in its task, and at two, which check
    * them on the driver, and asserts that each fails with an error naming
    * qid 4242.
    */
  private def assertRejects(vecs: Seq[(Long, Array[Float])]): Unit = {
    import spark.implicits._
    val queries = vecs.map { case (qid, v) => QueryRow(qid, v) }.toDS()
    for (e <- Seq(1, 2)) {
      val err = intercept[Exception](Querier.search(queries, smallIndex, 5, 60, None, e).collect())
      val chain = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null)
      assert(chain.exists(t => Option(t.getMessage).exists(_.contains("qid 4242"))), s"E = $e: $err")
    }
  }

  private val good = Array.fill(8)(0.5f)

  test("search rejects topK or efSearch below 1") {
    import spark.implicits._
    val queries = Seq(QueryRow(1L, good)).toDS()
    intercept[IllegalArgumentException](Querier.search(queries, smallIndex, 0, 60, None, 2))
    intercept[IllegalArgumentException](Querier.search(queries, smallIndex, 5, 0, None, 2))
  }

  test("search rejects a query of the wrong dimension, naming its qid") {
    assertRejects(Seq(1L -> good, 4242L -> Array.fill(7)(0.5f)))
  }

  test("search rejects a query with a NaN component, naming its qid") {
    assertRejects(Seq(1L -> good, 4242L -> good.updated(3, Float.NaN)))
  }

  test("search rejects a query with an infinite component, naming its qid") {
    assertRejects(Seq(1L -> good, 4242L -> good.updated(0, Float.PositiveInfinity)))
    assertRejects(Seq(4242L -> good.updated(7, Float.NegativeInfinity)))
  }

  test("end-to-end recall with RS segmentation is high on clustered data") {
    val data = VectorData.clustered(spark, 3000, 16, 12, seed = 2L).cache()
    val queries = VectorData.clusteredQueries(spark, 40, 16, 12, seed = 2L).cache()
    val truth = SparkBruteForce.search(data, queries, 10, Distance.Euclidean, 8).cache()
    val meta = Indexer.build(data, 16, 2, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir("q-rs"), 4)
    val res = Querier.search(queries, meta, 10, efSearch = 80, None, 4)
    assert(Recall.atK(res, truth, 10) >= 0.9)
  }

  test("ranks are contiguous from 1 and capped at topK") {
    val data = VectorData.clustered(spark, 1000, 8, 6, seed = 3L)
    val queries = VectorData.clusteredQueries(spark, 10, 8, 6, seed = 3L)
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(3), Distance.Euclidean,
      params, tmpDir("q-rank"), 4)
    val res = Querier.search(queries, meta, 7, 60, None, 4).collect()
    res.groupBy(_.getLong(0)).values.foreach { rows =>
      val ranks = rows.map(_.getInt(3)).sorted.toSeq
      assert(ranks === (1 to rows.length))
      assert(rows.length <= 7)
    }
  }

  test("no duplicate ids per query even with physical spill") {
    val data = VectorData.clustered(spark, 2000, 8, 6, seed = 4L)
    val queries = VectorData.clusteredQueries(spark, 20, 8, 6, seed = 4L)
    val sample = SegmenterLearner.sample(data, 2000, 1L)
    val seg = SegmenterLearner.learnRH(sample, 8, 2, alpha = 0.2).withPhysicalSpill(true)
    val meta = Indexer.build(data, 8, 1, seg, Distance.Euclidean, params, tmpDir("q-phys"), 4)
    val res = Querier.search(queries, meta, 10, 60, None, 4).collect()
    res.groupBy(_.getLong(0)).values.foreach { rows =>
      val ids = rows.map(_.getLong(1)).toSeq
      assert(ids.distinct.length === ids.length, s"duplicate ids: $ids")
    }
  }

  test("executor slotting does not change query results") {
    val data = VectorData.clustered(spark, 1500, 8, 6, seed = 5L)
    val queries = VectorData.clusteredQueries(spark, 15, 8, 6, seed = 5L)
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir("q-slots"), 4)
    for (confidence <- Seq(None, Some(0.95))) {
      def rows(e: Int) = Querier.search(queries, meta, 8, 60, confidence, e)
        .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      val one = rows(1)
      assert(rows(3) === one, s"confidence $confidence")
      assert(rows(8) === one, s"confidence $confidence")
    }
  }

  test("checkpointing gives identical results and cleans the temp dir") {
    val data = VectorData.clustered(spark, 1000, 8, 5, seed = 6L)
    val queries = VectorData.clusteredQueries(spark, 10, 8, 5, seed = 6L)
    val meta = Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean,
      params, tmpDir("q-ck"), 4)
    for (e <- Seq(1, 4)) {
      val ckpt = tmpDir("q-ck-tmp") + "/work"
      val plain = Querier.search(queries, meta, 5, 60, None, e)
        .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      val chk = Querier.search(queries, meta, 5, 60, None, e, Some(ckpt))
        .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      assert(chk === plain, s"E = $e")
      assert(!new java.io.File(ckpt).exists(), s"E = $e: checkpoint dir not cleaned")
    }
  }

  test("checkpointing into a shared directory removes only what it wrote") {
    val data = VectorData.clustered(spark, 1000, 8, 5, seed = 11L)
    val queries = VectorData.clusteredQueries(spark, 10, 8, 5, seed = 11L)
    // the index directory itself is the shared directory
    val dir = tmpDir("q-ck-shared")
    val meta = Indexer.build(data, 8, 1, new RandomSegmenter(2), Distance.Euclidean,
      params, dir, 4)
    val sentinel = new java.io.File(dir, "sentinel")
    assert(sentinel.createNewFile())
    def rows(df: org.apache.spark.sql.DataFrame) =
      df.orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(rows(Querier.search(queries, meta, 5, 60, None, 4, Some(dir))) ===
      rows(Querier.search(queries, meta, 5, 60, None, 4)))
    assert(rows(SparkBruteForce.search(data, queries, 5, Distance.Euclidean, 4, Some(dir))) ===
      rows(SparkBruteForce.search(data, queries, 5, Distance.Euclidean, 4)))
    assert(sentinel.exists(), "sentinel removed")
    assert(LannsMeta.read(dir).indexes === meta.indexes)
    meta.indexes.foreach(m => assert(new java.io.File(m.path).exists(), s"${m.path} removed"))
    assert(!new java.io.File(dir, "partial_hits").exists())
    assert(!new java.io.File(dir, "bf_partials").exists())
  }

  test("perShardTopK reduction still returns the full topK after the merge") {
    val data = VectorData.clustered(spark, 2000, 8, 6, seed = 7L)
    val queries = VectorData.clusteredQueries(spark, 10, 8, 6, seed = 7L)
    val meta = Indexer.build(data, 8, 4, new RandomSegmenter(1), Distance.Euclidean,
      params, tmpDir("q-pstk"), 4)
    val res = Querier.search(queries, meta, topK = 20, 60, Some(0.95), 4).collect()
    res.groupBy(_.getLong(0)).values.foreach(rows => assert(rows.length === 20))
  }

  test("perShardTopK barely affects recall at high confidence (its design goal)") {
    val data = VectorData.clustered(spark, 2000, 8, 6, seed = 8L).cache()
    val queries = VectorData.clusteredQueries(spark, 30, 8, 6, seed = 8L).cache()
    val truth = SparkBruteForce.search(data, queries, 10, Distance.Euclidean, 8).cache()
    val meta = Indexer.build(data, 8, 4, new RandomSegmenter(1), Distance.Euclidean,
      params, tmpDir("q-pstk2"), 4)
    val full = Recall.atK(Querier.search(queries, meta, 10, 80, None, 4), truth, 10)
    val reduced = Recall.atK(Querier.search(queries, meta, 10, 80, Some(0.95), 4), truth, 10)
    assert(reduced >= full - 0.05, s"reduced=$reduced full=$full")
  }

  test("virtual-spill hyperplane segmenter searches only a few segments per query") {
    val data = VectorData.clustered(spark, 2000, 8, 6, seed = 9L)
    val queries = VectorData.clusteredQueries(spark, 50, 8, 6, seed = 9L)
    val sample = SegmenterLearner.sample(data, 2000, 1L)
    val seg = SegmenterLearner.learnRH(sample, 8, depth = 3, alpha = 0.1)
    // average routed segments per query must be far below all 8
    val avg = queries.collect().map(q => seg.routeQuery(q.vec).length).sum / 50.0
    assert(avg < 4.0, s"avg segments per query $avg")
    // and the pipeline still returns results for every query
    val meta = Indexer.build(data, 8, 1, seg, Distance.Euclidean, params, tmpDir("q-virt"), 4)
    val res = Querier.search(queries, meta, 5, 60, None, 4)
    assert(res.select("qid").distinct().count() === 50)
  }

  test("queries work when some (shard, segment) groups are empty") {
    import org.apache.spark.sql.functions.col
    // tiny data, many partitions: some groups get no rows at all
    val data = VectorData.clustered(spark, 6, 8, 2, seed = 10L)
    val queries = VectorData.clusteredQueries(spark, 5, 8, 2, seed = 10L)
    val meta = Indexer.build(data, 8, 2, new RandomSegmenter(4), Distance.Euclidean,
      params, tmpDir("q-empty"), 4)
    assert(meta.indexes.size < 8) // sanity: emptiness actually occurred
    val res = Querier.search(queries, meta, 3, 60, None, 4)
    assert(res.filter(col("rank") === 1).count() === 5) // every query got something
  }
}
