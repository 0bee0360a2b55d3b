package bench

import repro.SparkSpec
import repro.experiments.AnnTableExperiment

/** Reproduces Tables 1–3 (SIFT1M stand-in): recall of HNSW vs RS/RH/APD at
  * (1,8)- and (2,4)-partitioning, plus build-time and query-time sweeps over
  * emulated executor counts {2,4,8}.
  *
  * Shape assertions mirror the paper's findings, with loose margins since
  * our substrate is a one-node simulator:
  *  - RS recall ≈ HNSW recall; RH drops significantly; APD sits in between;
  *  - (2,4)-partitioning recalls more than (1,8) for hyperplane segmenters;
  *  - segmented builds are several times faster than the HNSW build and get
  *    faster with more executors.
  */
class Table1to3SiftBench extends SparkSpec {

  private lazy val outcome =
    AnnTableExperiment.run(spark, AnnTableExperiment.sift, "target/bench-work/sift")

  private def results = outcome._1

  test("tables 1-3 print (siftLite)") {
    outcome._2.foreach(t => println(t.render + "\n"))
  }

  test("table 1 shape: HNSW and RS achieve high recall@10") {
    assert(results.hnswRecall(10) >= 0.9, s"HNSW R@10 ${results.hnswRecall(10)}")
    assert(results.recall(("RS", (1, 8)))(10) >= results.hnswRecall(10) - 0.05)
  }

  test("table 1 shape: RH loses recall vs RS; APD recovers most of it") {
    val rs = results.recall(("RS", (1, 8)))(10)
    val rh = results.recall(("RH", (1, 8)))(10)
    val apd = results.recall(("APD", (1, 8)))(10)
    assert(rh < rs - 0.01, s"RH $rh not below RS $rs")
    assert(apd >= rh, s"APD $apd below RH $rh")
  }

  test("table 1 shape: (2,4)-partitioning recalls more than (1,8) for RH") {
    val rh18 = results.recall(("RH", (1, 8)))(10)
    val rh24 = results.recall(("RH", (2, 4)))(10)
    assert(rh24 >= rh18 - 0.02, s"RH(2,4) $rh24 below RH(1,8) $rh18")
  }

  test("table 2 shape: partitioned builds beat the HNSW build time") {
    val hnsw = results.hnswBuildMillis
    AnnTableExperiment.Methods.foreach { m =>
      val e8 = results.buildMillis((m, 8))
      assert(e8 < hnsw, s"$m E=8 build $e8 ms not below HNSW $hnsw ms")
    }
  }

  test("table 2 shape: build times shrink as executors grow") {
    AnnTableExperiment.Methods.foreach { m =>
      val e2 = results.buildMillis((m, 2))
      val e8 = results.buildMillis((m, 8))
      assert(e8 <= e2 * 1.1, s"$m: E=8 $e8 ms vs E=2 $e2 ms")
    }
  }

  test("table 3 shape: hyperplane routing is faster to query than RS fan-out") {
    val rs = results.queryMsPerQ(("RS", (1, 8), 8))
    val rh = results.queryMsPerQ(("RH", (1, 8), 8))
    val apd = results.queryMsPerQ(("APD", (1, 8), 8))
    assert(rh <= rs, s"RH $rh ms/q not below RS $rs ms/q")
    assert(apd <= rs, s"APD $apd ms/q not below RS $rs ms/q")
  }

  test("all recall values are valid probabilities") {
    (results.hnswRecall.values ++ results.recall.values.flatMap(_.values)).foreach { r =>
      assert(r >= 0.0 && r <= 1.0)
    }
  }
}
