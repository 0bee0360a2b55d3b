package perfbench

import repro.core.{Distance, HnswParams}

/** One benchmark workload: the shape of the generated inputs and the LANNS
  * configuration they run through.
  *
  * @param apdAlpha   Some(α) learns an APD segmenter with virtual spill α;
  *                   None uses the data-independent RandomSegmenter
  * @param partitioned slot count E = the Spark core count when true, else 1
  * @param passes     timed brute-force and query passes per repetition (one
  *                   build each); short passes repeat so their medians rest on
  *                   more samples
  * @param recallFloor10 / recallFloorK the lowest recall@10 / recall@topK a
  *                   correct run may report; a lower value fails the run
  */
final case class Workload(
    name: String,
    distance: Distance,
    rows: Int,
    dim: Int,
    queries: Int,
    clusters: Int,
    std: Double,
    shards: Int,
    segments: Int,
    apdAlpha: Option[Double],
    hnsw: HnswParams,
    ef: Int,
    topK: Int,
    confidence: Option[Double],
    partitioned: Boolean,
    passes: Int,
    recallFloor10: Double,
    recallFloorK: Double,
)

object Workloads {

  /** The paper's headline (2 shards, 4 APD segments) configuration. HNSW
    * inserts into eight groups dominate the build; the query pass splits
    * between HNSW search and the two-level merge. The only workload that
    * exercises segmenter learning and spill routing.
    */
  val SiftApd = Workload(
    name = "sift-apd", distance = Distance.Euclidean,
    rows = 8000, dim = 32, queries = 1200, clusters = 100, std = 0.22,
    shards = 2, segments = 4, apdAlpha = Some(0.15),
    hnsw = HnswParams(m = 16, efConstruction = 120, efSearch = 150), ef = 150,
    topK = 100, confidence = Some(0.95), partitioned = true, passes = 2,
    recallFloor10 = 0.9, recallFloorK = 0.85,
  )

  /** Many small groups (4 shards × 8 random segments): every query fans out
    * to all 32 groups, so routing, the query shuffle and the two Window
    * merges dominate while each HNSW search is cheap (Table 8's many-shard
    * shape). Runnable by name but not listed in BENCHMARK.json: with a third
    * workload the benchmark's runs no longer fit their time budget, and this
    * one's query pass was the noisiest.
    */
  val FanoutRs = Workload(
    name = "fanout-rs", distance = Distance.Euclidean,
    rows = 8000, dim = 32, queries = 1200, clusters = 100, std = 0.22,
    shards = 4, segments = 8, apdAlpha = None,
    hnsw = HnswParams(m = 16, efConstruction = 100, efSearch = 50), ef = 50,
    topK = 100, confidence = Some(0.95), partitioned = true, passes = 1,
    recallFloor10 = 0.9, recallFloorK = 0.85,
  )

  /** One unpartitioned cosine index (the paper's HNSW baseline column):
    * single-core HNSW insertion with the cosine kernel is almost all of the
    * build, and the Spark query path is thin. The spread, m and ef keep
    * recall@10 near 0.98, so a recall loss can show.
    */
  val CosineHnsw = Workload(
    name = "cosine-hnsw", distance = Distance.Cosine,
    rows = 3000, dim = 64, queries = 1000, clusters = 50, std = 0.5,
    shards = 1, segments = 1, apdAlpha = None,
    hnsw = HnswParams(m = 8, efConstruction = 60, efSearch = 10), ef = 10,
    topK = 10, confidence = None, partitioned = false, passes = 3,
    recallFloor10 = 0.9, recallFloorK = 0.9,
  )

  val All: Seq[Workload] = Seq(SiftApd, FanoutRs, CosineHnsw)

  def byName(name: String): Option[Workload] = All.find(_.name == name)
}
