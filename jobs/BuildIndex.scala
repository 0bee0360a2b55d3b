package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{Distance, HnswParams}
import repro.jobs.JobInputs.arg
import repro.lanns.Indexer
import repro.segment.SegmenterLearner

/** Generic LANNS index build (Figure 6): generates a clustered dataset,
  * optionally pre-learns a segmenter, and builds the two-level partitioned
  * index under the output directory, in §6.1's setup (`HnswParams()`).
  *
  * Usage: spark-submit --class repro.jobs.BuildIndex <jar> \
  *          <outDir> [n=40000] [dim=32] [shards=2] [segments=4] \
  *          [method=APD|RH|RS] [executors=8]
  */
object BuildIndex {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("lanns-build-index").getOrCreate()
    try run(spark, args) finally spark.stop()
  }

  /** Builds the index `args` describe in `spark`. */
  def run(spark: SparkSession, args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: BuildIndex <outDir> [n] [dim] [shards] [segments] [method] [executors]")
    val outDir = args(0)
    val n = arg(args, 1, "40000").toLong
    val dim = arg(args, 2, "32").toInt
    val shards = arg(args, 3, "2").toInt
    val segments = arg(args, 4, "4").toInt
    val method = arg(args, 5, "APD")
    val executors = arg(args, 6, "8").toInt

    val data = JobInputs.data(spark, n, dim)
    val segmenter = SegmenterLearner.segmenter(method, segments, dim,
      SegmenterLearner.sample(data, SegmenterLearner.SampleSize, 9L), JobInputs.Seed)
    val meta = Indexer.build(data, dim, shards, segmenter, Distance.Euclidean,
      HnswParams(), outDir, executors)
    println(s"built ${meta.indexes.size} indices, ${meta.totalCount} vectors -> $outDir")
  }
}
