package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.AnnTableExperiment.Results

class AnnTableRenderSpec extends AnyFunSuite {

  private val partitionings = Seq((1, 4), (2, 2))
  private val executorSweep = Seq(2, 4)

  private val methods = AnnTableExperiment.Methods

  private def fakeResults: Results = Results(
    hnswRecall = Map(1 -> 0.99, 10 -> 0.98),
    recall = (for ((s, m) <- partitionings; mth <- methods)
      yield (mth, (s, m)) -> Map(1 -> 0.9, 10 -> 0.8)).toMap,
    hnswBuildMillis = 60000L,
    buildMillis = (for (mth <- methods; e <- executorSweep)
      yield (mth, e) -> 12000L).toMap,
    hnswQueryMsPerQ = 1.5,
    queryMsPerQ = (for ((s, m) <- partitionings; mth <- methods; e <- executorSweep)
      yield (mth, (s, m), e) -> 0.7).toMap,
    learnMillis = Map("RH(1,4)" -> 1200L, "APD(1,4)" -> 3400L),
  )

  private lazy val tables = AnnTableExperiment.render("demo", partitionings, fakeResults)

  test("render produces the four paper-shaped tables") {
    assert(tables.length === 4)
    assert(tables.map(_.title).exists(_.contains("Recall")))
    assert(tables.map(_.title).exists(_.contains("Build times")))
    assert(tables.map(_.title).exists(_.contains("Query times")))
    assert(tables.map(_.title).exists(_.contains("pre-learning")))
  }

  test("recall table has one row per method-partitioning plus HNSW") {
    val recallT = tables.find(_.title.contains("Recall")).get
    assert(recallT.rows.length === 1 + partitionings.length * methods.length)
    assert(recallT.rows.head.head === "HNSW")
    assert(recallT.header === Seq("Method", "R@1", "R@10"))
  }

  test("build table lists HNSW only on the first executor row") {
    val buildT = tables.find(_.title.contains("Build times")).get
    assert(buildT.rows.length === executorSweep.length)
    assert(buildT.rows.head(1) === "1.00")  // 60000 ms = 1 minute
    assert(buildT.rows(1)(1) === "-")
  }

  test("query table carries one column per method-partitioning") {
    val queryT = tables.find(_.title.contains("Query times")).get
    assert(queryT.header.length === 2 + partitionings.length * methods.length)
    assert(queryT.rows.head(1) === "1.50")
    assert(queryT.rows.head(2) === "0.70")
  }
}
