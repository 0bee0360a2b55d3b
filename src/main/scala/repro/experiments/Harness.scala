package repro.experiments

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{Distance, HnswParams, QueryRow, VecRow}
import repro.lanns.{Indexer, LannsMeta, PerShardTopK, Querier, SparkBruteForce}
import repro.segment.{Segmenter, SegmenterLearner}

/** What every experiment harness does with its dataset: load and cache the
  * data and queries, compute their exact top-`k` ground truth with Spark
  * brute force (§5.4), learn segmenters on one uniform subsample (§5.1),
  * then time builds and materialized top-`k` query passes. Made only by
  * [[Harness.run]], which releases the caches when its body returns.
  */
final class Harness private (spark: SparkSession, val ds: DatasetSpec, k: Int) {
  val data: Dataset[VecRow] = ds.data(spark).cache()
  data.count()
  val queries: Dataset[QueryRow] = ds.queries(spark).cache()
  val nQueries: Long = queries.count()
  val truth: DataFrame = SparkBruteForce
    .search(data, queries, k, Distance.Euclidean, numPartitions = 16)
    .cache()
  truth.count()

  /** The sample every segmenter of this dataset is learnt on, drawn on
    * first use, so a harness that learns none never samples.
    */
  lazy val sample: Array[Array[Float]] =
    SegmenterLearner.sample(data, SegmenterLearner.SampleSize, ds.seed + 9)

  /** The seed of every segmenter of this dataset. */
  val segmenterSeed: Long = ds.seed + 17

  /** The RS, RH or APD segmenter with `segments` segments per shard. */
  def segmenter(kind: String, segments: Int): Segmenter =
    SegmenterLearner.segmenter(kind, segments, ds.dim, sample, segmenterSeed)

  /** Build an index under `dir`; returns its metadata and build wall ms. */
  def build(shards: Int, seg: Segmenter, hnsw: HnswParams, dir: String,
            numExecutors: Int): (LannsMeta, Long) =
    Fmt.timed(Indexer.build(data, ds.dim, shards, seg, Distance.Euclidean, hnsw, dir, numExecutors))

  /** One materialized top-`k` query pass at the index's own `efSearch`;
    * returns `eval` of it and the pass's wall ms, which excludes `eval`.
    */
  def query[A](meta: LannsMeta, numExecutors: Int, checkpointDir: Option[String] = None)(
      eval: DataFrame => A): (A, Long) = {
    val (res, ms) = Fmt.timed {
      val d = Querier.search(queries, meta, k, meta.params.efSearch,
        Some(PerShardTopK.Confidence), numExecutors, checkpointDir).cache()
      d.count()
      d
    }
    try (eval(res), ms) finally res.unpersist()
  }

  /** `eval` of a first [[query]] pass and the better wall ms of two passes,
    * which damps JIT/GC noise at this scale.
    */
  def bestOfTwo[A](meta: LannsMeta, numExecutors: Int)(eval: DataFrame => A): (A, Long) = {
    val (a, first) = query(meta, numExecutors)(eval)
    (a, math.min(first, query(meta, numExecutors)(_ => ())._2))
  }
}

object Harness {
  /** `body` applied to a harness of `ds` with top-`k` ground truth; its
    * cached data, queries and truth are released when `body` returns.
    */
  def run[A](spark: SparkSession, ds: DatasetSpec, k: Int)(body: Harness => A): A = {
    val h = new Harness(spark, ds, k)
    try body(h) finally { h.truth.unpersist(); h.data.unpersist(); h.queries.unpersist() }
  }
}
