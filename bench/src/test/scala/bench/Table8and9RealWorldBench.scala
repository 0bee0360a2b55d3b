package bench

import repro.SparkSpec
import repro.experiments.RealWorldExperiment

/** Reproduces Tables 8 & 9: end-to-end build time, query time, and recall
  * for the four real-world stand-ins (PYMK, People, NearDupe, Groups), each
  * in its production-like sharding/segmentation configuration.
  *
  * Paper shape: every use case reaches ≥95% recall at its serving K; the
  * sharded pipelines index tens of millions (here: tens of thousands) in
  * hours (here: seconds).
  */
class Table8and9RealWorldBench extends SparkSpec {

  private lazy val outcome = RealWorldExperiment.run(spark, "target/bench-work/real")

  private def rows = outcome._1

  test("tables 8-9 print (real-world stand-ins)") {
    outcome._2.foreach(t => println(t.render + "\n"))
  }

  test("all four use cases are measured") {
    assert(rows.map(_.name).toSet ===
      Set("pymkLite", "peopleLite", "nearDupeLite", "groupsLite"))
  }

  test("table 9 shape: every use case reaches high recall at its serving K") {
    rows.foreach { r =>
      assert(r.recallAtK >= 0.9, s"${r.name}: R@${r.k} = ${r.recallAtK}")
    }
  }

  test("table 8 shape: times are positive and recorded for every dataset") {
    rows.foreach { r =>
      assert(r.buildMillis > 0 && r.queryMillis > 0)
      assert(r.indexSize > 0 && r.querySize > 0)
    }
  }

  test("sharded builds index the full dataset exactly once (virtual spill)") {
    val people = rows.find(_.name == "peopleLite").get
    assert(people.indexSize === 90000L)
    val pymk = rows.find(_.name == "pymkLite").get
    assert(pymk.indexSize === 60000L)
  }
}
