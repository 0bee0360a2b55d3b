package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.HnswParams
import repro.eval.Recall
import repro.segment.RandomSegmenter

/** The harness behind Tables 1–3 (SIFT1M) and Tables 4–6 (GIST1M): recall
  * of HNSW vs the (n, m)-partitioned RS / RH / APD indices, plus build-time
  * and query-time sweeps over emulated executor counts.
  */
object AnnTableExperiment {

  /** One dataset and the (shards, segments) partitionings it is run at. */
  final case class Config(dataset: DatasetSpec, partitionings: Seq[(Int, Int)])

  private val executorSweep = Seq(2, 4, 8)
  private val topK          = 100
  private val ks            = Seq(1, 5, 10, 15, 50, 100)

  /** Raw measurements; the bench suites assert on these and render the
    * tables from them.
    */
  final case class Results(
      hnswRecall: Map[Int, Double],
      recall: Map[(String, (Int, Int)), Map[Int, Double]],
      hnswBuildMillis: Long,
      buildMillis: Map[(String, Int), Long],
      hnswQueryMsPerQ: Double,
      queryMsPerQ: Map[(String, (Int, Int), Int), Double],
      learnMillis: Map[String, Long],
  )

  val Methods: Seq[String] = Seq("RS", "RH", "APD")

  /** Tables 1–3: siftLite at (1,8)- and (2,4)-partitioning. */
  val sift: Config = Config(Datasets.siftLite, partitionings = Seq((1, 8), (2, 4)))

  /** Tables 4–6: gistLite at (1,8)-partitioning. */
  val gist: Config = Config(Datasets.gistLite, partitionings = Seq((1, 8)))

  /** Run the full experiment for one dataset, writing its indexes and
    * checkpoints under `workDir`.
    */
  def run(spark: SparkSession, cfg: Config, workDir: String): (Results, Seq[ExpTable]) = {
    val results = Harness.run(spark, cfg.dataset, topK)(h => measure(h, cfg.partitionings, workDir))
    (results, render(cfg.dataset.name, cfg.partitionings, results))
  }

  private def measure(h: Harness, partitionings: Seq[(Int, Int)], workDir: String): Results = {
    val maxE = executorSweep.max
    val work = s"$workDir/${h.ds.name}"
    def recallAtKs(res: DataFrame) = Recall.atKs(res, h.truth, ks)

    // ---- HNSW baseline: one unpartitioned index, one slot ----------------
    val (hnswMeta, hnswBuildMs) = h.build(1, new RandomSegmenter(1), HnswParams(), s"$work/hnsw", 1)
    val (hnswRecall, hnswQueryMs) = h.bestOfTwo(hnswMeta, 1)(recallAtKs)

    h.sample // drawn before the timed learns below, so they time learning alone

    var recall = Map.empty[(String, (Int, Int)), Map[Int, Double]]
    var learn = Map.empty[String, Long]
    var buildMs = Map.empty[(String, Int), Long]
    var queryMs = Map.empty[(String, (Int, Int), Int), Double]

    for (method <- Methods; (s, m) <- partitionings) {
      val (seg, learnT) = Fmt.timed(h.segmenter(method, m))
      learn += s"$method($s,$m)" -> learnT

      // Recall: build once at max executors, query at max executors,
      // exercising the checkpoint path of §5.3.1.
      val (meta, _) = h.build(s, seg, HnswParams(), s"$work/${method}_${s}x${m}_recall", maxE)
      recall += (method, (s, m)) ->
        h.query(meta, maxE, Some(s"$work/ckpt_${method}_${s}x$m"))(recallAtKs)._1

      // Query-time sweep (Tables 3/6) over emulated executor counts.
      for (e <- executorSweep) {
        val (_, ms) = h.bestOfTwo(meta, e)(_ => ())
        queryMs += (method, (s, m), e) -> ms.toDouble / h.nQueries
      }

      // Build-time sweep (Tables 2/5): the paper reports one build-time
      // table per dataset — times barely change across partitionings since
      // segmenters are pre-learnt — so we sweep the first partitioning.
      if ((s, m) == partitionings.head) {
        for (e <- executorSweep) {
          val (_, ms) = h.build(s, seg, HnswParams(), s"$work/${method}_${s}x${m}_E$e", e)
          buildMs += (method, e) -> ms
        }
      }
    }

    Results(hnswRecall, recall, hnswBuildMs, buildMs, hnswQueryMs.toDouble / h.nQueries,
      queryMs, learn)
  }

  /** Render the paper-shaped tables from raw results: one recall column
    * per k of `r.hnswRecall`, one time row per executor count of
    * `r.buildMillis`.
    */
  def render(name: String, partitionings: Seq[(Int, Int)], r: Results): Seq[ExpTable] = {
    val ks = r.hnswRecall.keys.toSeq.sorted
    val executorSweep = r.buildMillis.keys.map(_._2).toSeq.distinct.sorted
    val recallT = ExpTable(
      s"Recall for $name (paper Table 1/4 shape)",
      "Method" +: ks.map(k => s"R@$k"),
      (Seq("HNSW" +: ks.map(k => Fmt.f4(r.hnswRecall(k)))) ++
        (for ((s, m) <- partitionings; method <- Methods) yield
          s"$method($s,$m)" +: ks.map(k => Fmt.f4(r.recall((method, (s, m)))(k))))),
    )
    val buildT = ExpTable(
      s"Build times for $name, minutes (paper Table 2/5 shape)",
      Seq("Executors", "HNSW", "RS", "RH", "APD"),
      executorSweep.zipWithIndex.map { case (e, i) =>
        Seq(e.toString,
          if (i == 0) Fmt.minutes(r.hnswBuildMillis.toDouble) else "-") ++
          Methods.map(mth => Fmt.minutes(r.buildMillis((mth, e)).toDouble))
      },
    )
    val queryT = ExpTable(
      s"Query times for $name, ms/query (paper Table 3/6 shape)",
      Seq("Executors", "HNSW") ++
        partitionings.flatMap { case (s, m) => Methods.map(mth => s"$mth($s,$m)") },
      executorSweep.zipWithIndex.map { case (e, i) =>
        Seq(e.toString, if (i == 0) Fmt.f2(r.hnswQueryMsPerQ) else "-") ++
          partitionings.flatMap { case (s, m) =>
            Methods.map(mth => Fmt.f2(r.queryMsPerQ((mth, (s, m), e))))
          }
      },
    )
    val learnT = ExpTable(
      s"Segmenter pre-learning times for $name, seconds",
      Seq("Segmenter", "Seconds"),
      r.learnMillis.toSeq.sorted.map { case (k, v) => Seq(k, Fmt.f2(v / 1000.0)) },
    )
    Seq(recallT, buildT, queryT, learnT)
  }
}
