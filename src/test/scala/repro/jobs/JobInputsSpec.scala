package repro.jobs

import repro.SparkSpec
import repro.core.{Distance, HnswParams}
import repro.lanns.Indexer
import repro.segment.RandomSegmenter

class JobInputsSpec extends SparkSpec {

  test("Query draws the same vector per qid as BruteForceJob from a BuildIndex index") {
    val (n, dim) = (16000L, 8)
    val dir = java.nio.file.Files.createTempDirectory("job-inputs").toString
    // BuildIndex's path: its data at n, indexed under virtual spill
    val meta = Indexer.build(JobInputs.data(spark, n, dim), dim, 2, new RandomSegmenter(2),
      Distance.Euclidean, HnswParams(m = 4, efConstruction = 8, efSearch = 8), dir, 4)
    def vecs(ds: org.apache.spark.sql.Dataset[repro.core.QueryRow]) =
      ds.collect().map(q => q.qid -> q.vec.toSeq).toMap
    val bruteForceJob = vecs(JobInputs.queries(spark, n, dim, 50))
    val query = vecs(JobInputs.queries(spark, meta.totalCount, meta.dim, 50))
    assert(bruteForceJob.size === 50)
    assert(query === bruteForceJob)
  }
}
