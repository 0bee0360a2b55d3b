package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.HnswParams
import repro.eval.Recall
import repro.segment.RandomSegmenter

/** Tables 8 & 9: end-to-end build time, query time, and recall on the four
  * real-world stand-ins (PYMK, People, NearDupe, Groups), each with its
  * production-like partitioning:
  *  - People / PYMK: multi-sharded (paper: 32 / 20 shards; ours scaled to 4),
  *    random segmentation within shards;
  *  - NearDupe: a single HNSW index with distributed querying (paper §6.2);
  *  - Groups: single shard, multi-segment APD index with virtual spill.
  */
object RealWorldExperiment {

  /** One dataset's pipeline configuration. */
  final case class UseCase(
      dataset: DatasetSpec,
      shards: Int,
      segmenterKind: String, // "RS" | "RH" | "APD"
      segments: Int,
      k: Int,
  )

  private val useCases = Seq(
    UseCase(Datasets.pymkLite, shards = 4, segmenterKind = "RS", segments = 2, k = 100),
    UseCase(Datasets.peopleLite, shards = 4, segmenterKind = "RS", segments = 2, k = 50),
    UseCase(Datasets.nearDupeLite, shards = 1, segmenterKind = "RS", segments = 1, k = 100),
    UseCase(Datasets.groupsLite, shards = 1, segmenterKind = "APD", segments = 4, k = 100),
  )
  private val numExecutors = 8

  /** Measured row feeding Table 8 (times) and Table 9 (recall, vectors indexed). */
  final case class Row(name: String, shards: Int, dim: Int, indexSize: Long,
                       buildMillis: Long, querySize: Long, queryMillis: Long,
                       k: Int, recallAtK: Double)

  /** Runs every use case, writing indexes and checkpoints under `workDir`. */
  def run(spark: SparkSession, workDir: String): (Seq[Row], Seq[ExpTable]) = {
    // Warm up JIT/Spark before any timed pipeline, so the first use case
    // does not absorb the compilation cost the others skip.
    val warm = Datasets.groupsLite.copy(name = "warmup", n = 2000, nQueries = 50)
    Harness.run(spark, warm, 10) { h =>
      val (meta, _) = h.build(2, new RandomSegmenter(2), HnswParams(), s"$workDir/real/warmup", numExecutors)
      h.query(meta, numExecutors)(_ => ())
    }
    val rows = useCases.map { uc =>
      Harness.run(spark, uc.dataset, uc.k) { h =>
        val name = uc.dataset.name
        val seg = h.segmenter(uc.segmenterKind, uc.segments)
        val (meta, buildMs) = h.build(uc.shards, seg, HnswParams(), s"$workDir/real/$name", numExecutors)
        val (rec, queryMs) = h.query(meta, numExecutors, Some(s"$workDir/real/$name-ckpt"))(
          Recall.atK(_, h.truth, uc.k))
        Row(name, uc.shards, h.ds.dim, meta.totalCount, buildMs, h.nQueries, queryMs, uc.k, rec)
      }
    }

    val timesT = ExpTable(
      "Build and query times for real-world stand-ins (paper Table 8 shape)",
      Seq("Dataset", "S", "dim", "Index Size", "Build", "Query Size", "Query"),
      rows.map(r => Seq(r.name, r.shards.toString, r.dim.toString, r.indexSize.toString,
        s"${Fmt.f2(r.buildMillis / 1000.0)}s", r.querySize.toString,
        s"${Fmt.f2(r.queryMillis / 1000.0)}s")),
    )
    val recallT = ExpTable(
      "Recall for real-world stand-ins (paper Table 9 shape)",
      Seq("Dataset", "S", "dim", "Index Size", "Query Size", "K", "R@K"),
      rows.map(r => Seq(r.name, r.shards.toString, r.dim.toString, r.indexSize.toString,
        r.querySize.toString, r.k.toString, Fmt.f4(r.recallAtK))),
    )
    (rows, Seq(timesT, recallT))
  }
}
