package repro.lanns

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, VectorData}
import repro.core.{BruteForce, Distance, QueryRow, VecRow}

class SparkBruteForceSpec extends SparkSpec {

  test("matches the DuckDB oracle on integer vectors") {
    import spark.implicits._
    val rng = new java.util.Random(1L)
    val rows = (0 until 40).map(i => (i.toLong, rng.nextInt(10), rng.nextInt(10), rng.nextInt(10)))
    // Ids 0..4 get a second vector one step away, and a query sits on each
    // first copy: both copies are near it, but the id is returned once.
    val data = rows ++ rows.take(5).map { case (id, a, b, c) => (id, a, b, c + 1) }
    val qs = rows.take(5).map { case (id, a, b, c) => (100 + id, a, b, c) } ++
      (105 until 110).map(i => (i.toLong, rng.nextInt(10), rng.nextInt(10), rng.nextInt(10)))

    val dataDs = spark.createDataset(data.map { case (id, a, b, c) =>
      VecRow(id, Array(a.toFloat, b.toFloat, c.toFloat)) })
    val queryDs = spark.createDataset(qs.map { case (id, a, b, c) =>
      QueryRow(id, Array(a.toFloat, b.toFloat, c.toFloat)) })

    val dataDf = data.toDF("id", "x0", "x1", "x2")
    val queryDf = qs.toDF("qid", "x0", "x1", "x2")
    val distExpr = (0 to 2).map(i =>
      s"(CAST(q.x$i AS DOUBLE)-CAST(d.x$i AS DOUBLE))*(CAST(q.x$i AS DOUBLE)-CAST(d.x$i AS DOUBLE))"
    ).mkString(" + ")
    // one partition holds both copies of an id; four split them up
    for (parts <- Seq(1, 4)) Oracle.assertEquivalent(
      SparkBruteForce.search(dataDs, queryDs, k = 3, Distance.Euclidean, parts)
        .select("qid", "id", "dist", "rank"),
      s"""SELECT qid, id, dist, rank FROM (
         |  SELECT qid, id, dist,
         |         row_number() OVER (PARTITION BY qid ORDER BY dist, id) AS rank
         |  FROM (SELECT CAST(q.qid AS BIGINT) AS qid, CAST(d.id AS BIGINT) AS id,
         |               MIN($distExpr) AS dist
         |        FROM qs q CROSS JOIN ds d
         |        GROUP BY q.qid, d.id))
         |WHERE rank <= 3""".stripMargin,
      "ds" -> dataDf, "qs" -> queryDf,
    )
  }

  /** Runs brute force over four rows and two queries, `badRow` as the
    * vector of row id 4242 or `badQuery` as that of query qid 4242, and
    * asserts that the failure names `name`.
    */
  private def assertRejects(badRow: Option[Array[Float]], badQuery: Option[Array[Float]],
                            name: String): Unit = {
    import spark.implicits._
    val good = Array(0.5f, 1f, 2f)
    val data = ((1L to 3L).map(VecRow(_, good)) :+ VecRow(4242L, badRow.getOrElse(good))).toDS()
    val queries = Seq(QueryRow(1L, good), QueryRow(4242L, badQuery.getOrElse(good))).toDS()
    val e = intercept[Exception](SparkBruteForce.search(data, queries, 2, Distance.Euclidean, 2).collect())
    val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(chain.exists(t => Option(t.getMessage).exists(_.contains(name))), e)
  }

  test("rejects a row longer than the queries, naming its id") {
    assertRejects(Some(Array(0.5f, 1f, 2f, 3f)), None, "row id 4242")
  }

  test("rejects a row shorter than the queries, naming its id") {
    assertRejects(Some(Array(0.5f, 1f)), None, "row id 4242")
  }

  test("rejects a row with a NaN component, naming its id") {
    assertRejects(Some(Array(0.5f, Float.NaN, 2f)), None, "row id 4242")
  }

  test("rejects a query of another length than the first, naming its qid") {
    assertRejects(None, Some(Array(0.5f, 1f)), "query qid 4242")
  }

  test("rejects k below 1") {
    import spark.implicits._
    val data = Seq(VecRow(1L, Array(0f))).toDS()
    val queries = Seq(QueryRow(9L, Array(0f))).toDS()
    intercept[IllegalArgumentException](SparkBruteForce.search(data, queries, 0, Distance.Euclidean, 1))
  }

  test("agrees with the single-machine brute force") {
    val data = VectorData.clustered(spark, 500, 8, 4, seed = 2L)
    val queries = VectorData.clusteredQueries(spark, 10, 8, 4, seed = 2L)
    val res = SparkBruteForce.search(data, queries, 5, Distance.Euclidean, 4)
      .collect().groupBy(_.getLong(0))
    val rows = data.collect()
    val qs = queries.collect()
    val exact = BruteForce.topK(rows.map(_.id), rows.flatMap(_.vec), 8, qs.map(_.vec), 5,
      Distance.Euclidean)
    qs.indices.foreach { i =>
      val got = res(qs(i).qid).sortBy(_.getInt(3)).map(_.getLong(1)).toSeq
      assert(got === exact(i).map(_.id).toSeq, s"query ${qs(i).qid}")
    }
  }

  test("returns exactly k ranked rows per query when the dataset is large enough") {
    val data = VectorData.clustered(spark, 300, 4, 3, seed = 3L)
    val queries = VectorData.clusteredQueries(spark, 7, 4, 3, seed = 3L)
    val res = SparkBruteForce.search(data, queries, 4, Distance.Euclidean, 3).collect()
    val byQ = res.groupBy(_.getLong(0))
    assert(byQ.size === 7)
    byQ.values.foreach { rows =>
      assert(rows.length === 4)
      assert(rows.map(_.getInt(3)).sorted.toSeq === Seq(1, 2, 3, 4))
    }
  }

  test("partition count does not change results") {
    val data = VectorData.clustered(spark, 400, 4, 3, seed = 4L)
    val queries = VectorData.clusteredQueries(spark, 5, 4, 3, seed = 4L)
    def rows(p: Int) = SparkBruteForce.search(data, queries, 6, Distance.Euclidean, p)
      .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(rows(1) === rows(7))
  }

  test("checkpointing partials gives identical results and cleans up") {
    val data = VectorData.clustered(spark, 300, 4, 3, seed = 5L)
    val queries = VectorData.clusteredQueries(spark, 5, 4, 3, seed = 5L)
    val dir = java.nio.file.Files.createTempDirectory("bf-ckpt").toString + "/tmp"
    val plain = SparkBruteForce.search(data, queries, 5, Distance.Euclidean, 4)
      .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val ckpt = SparkBruteForce.search(data, queries, 5, Distance.Euclidean, 4, Some(dir))
      .orderBy("qid", "rank").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(ckpt === plain)
    assert(!new java.io.File(dir).exists(), "checkpoint dir not cleaned")
  }

  test("k capped by dataset size") {
    import spark.implicits._
    val data = spark.createDataset(Seq(VecRow(1L, Array(0f)), VecRow(2L, Array(1f))))
    val queries = spark.createDataset(Seq(QueryRow(9L, Array(0f))))
    val res = SparkBruteForce.search(data, queries, 10, Distance.Euclidean, 2)
    assert(res.count() === 2)
  }

  test("distances reported are squared L2 for the Euclidean metric") {
    import spark.implicits._
    val data = spark.createDataset(Seq(VecRow(1L, Array(3f, 4f))))
    val queries = spark.createDataset(Seq(QueryRow(9L, Array(0f, 0f))))
    val d = SparkBruteForce.search(data, queries, 1, Distance.Euclidean, 1)
      .select("dist").as[Double].head()
    assert(d === 25.0)
  }
}
