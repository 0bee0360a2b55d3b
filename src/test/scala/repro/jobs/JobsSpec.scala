package repro.jobs

import java.nio.file.Files
import repro.SparkSpec
import repro.core.HnswParams
import repro.eval.Recall
import repro.lanns.LannsMeta

class JobsSpec extends SparkSpec {

  test("BuildIndex, Query and BruteForceJob run end to end in §6.1's setup") {
    val work = Files.createTempDirectory("jobs").toString
    val (idx, res, truth) = (s"$work/idx", s"$work/res", s"$work/truth")
    BuildIndex.run(spark, Array(idx, "4000", "8", "2", "4", "APD", "4"))
    Query.run(spark, Array(idx, res, "50", "10", "4"))
    BruteForceJob.run(spark, Array(truth, "4000", "8", "50", "10", "4"))

    assert(LannsMeta.read(idx).params === HnswParams())
    val result = spark.read.parquet(res)
    assert(result.count() === 50 * 10)
    val ranks = result.select("qid", "rank").collect()
      .groupBy(_.getLong(0)).values.map(_.map(_.getInt(1)).sorted.toSeq)
    assert(ranks.size === 50 && ranks.forall(_ === (1 to 10)))
    val recall = Recall.atK(result, spark.read.parquet(truth), 10)
    assert(recall >= 0.9, s"recall@10 $recall")
  }
}
