package bench

import repro.SparkSpec
import repro.experiments.AnnTableExperiment

/** Reproduces Tables 4–6 (GIST1M stand-in): recall, build times and query
  * times at (1,8)-partitioning in the higher-dimensional regime.
  */
class Table4to6GistBench extends SparkSpec {

  private lazy val outcome =
    AnnTableExperiment.run(spark, AnnTableExperiment.gist("target/bench-work/gist"))

  private def results = outcome._1

  test("tables 4-6 print (gistLite)") {
    outcome._2.foreach(t => println(t.render + "\n"))
  }

  test("table 4 shape: HNSW and RS achieve high recall@10; RH drops") {
    assert(results.hnswRecall(10) >= 0.85, s"HNSW R@10 ${results.hnswRecall(10)}")
    val rs = results.recall(("RS", (1, 8)))(10)
    val rh = results.recall(("RH", (1, 8)))(10)
    assert(rs >= results.hnswRecall(10) - 0.05)
    assert(rh < rs - 0.01, s"RH $rh not below RS $rs")
  }

  test("table 5 shape: partitioned builds beat the HNSW build and scale with executors") {
    val hnsw = results.hnswBuildMillis
    AnnTableExperiment.Methods.foreach { m =>
      assert(results.buildMillis((m, 8)) < hnsw)
      assert(results.buildMillis((m, 8)) <= results.buildMillis((m, 2)) * 1.1)
    }
  }

  test("table 6 shape: hyperplane segmenters query faster than RS fan-out") {
    val rs = results.queryMsPerQ(("RS", (1, 8), 8))
    assert(results.queryMsPerQ(("RH", (1, 8), 8)) <= rs)
    assert(results.queryMsPerQ(("APD", (1, 8), 8)) <= rs)
  }
}
