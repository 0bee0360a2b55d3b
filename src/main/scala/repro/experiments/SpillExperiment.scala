package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.eval.Recall
import repro.segment.{RandomSegmenter, Segmenter, SegmenterLearner}

/** Table 7: physical vs virtual spill on the Groups dataset — R@15 and QPS
  * for a multi-segmented APD index over segments ∈ {1, 4, 8, 16} and spill
  * ∈ {10, 20, 30}%.
  *
  * §6.1 fixes the spill-percentage convention: "α = 0.15, i.e., we route
  * about 30% queries to both partitions", so spill% = 2α·100 and the sweep
  * uses α ∈ {0.05, 0.10, 0.15}.
  */
object SpillExperiment {

  private val dataset       = Datasets.groupsLite
  private val segmentCounts = Seq(1, 4, 8, 16)
  private val spillPercents = Seq(10, 20, 30)
  private val k             = 15
  private val hnsw          = Harness.Hnsw.copy(efSearch = 60)
  private val numExecutors  = 8

  /** One sweep point: recall@15 and queries/second for both spill modes. */
  final case class Row(segments: Int, spillPct: Int,
                       physRecall: Double, physQps: Double,
                       virtRecall: Double, virtQps: Double)

  /** Runs the sweep, writing its indexes under `workDir`. */
  def run(spark: SparkSession, workDir: String): (Seq[Row], ExpTable) = {
    val rows = Harness.run(spark, dataset, k)(sweep(_, s"$workDir/${dataset.name}-spill"))
    val table = ExpTable(
      s"Spill comparison on ${dataset.name}, APD segmentation (paper Table 7 shape)",
      Seq("Segments", "Spill", "Phys R@15", "Phys QPS", "Virt R@15", "Virt QPS"),
      rows.map(r => Seq(r.segments.toString, s"${r.spillPct}%",
        Fmt.f4(r.physRecall), Fmt.f2(r.physQps), Fmt.f4(r.virtRecall), Fmt.f2(r.virtQps))),
    )
    (rows, table)
  }

  private def sweep(h: Harness, work: String): Seq[Row] = {
    // Recall@15 and QPS (from the better wall time of two passes).
    def measure(tag: String, seg: Segmenter): (Double, Double) = {
      val (meta, _) = h.build(1, seg, hnsw, s"$work/$tag", numExecutors)
      val (rec, ms) = h.bestOfTwo(meta, numExecutors)(Recall.atK(_, h.truth, k))
      (rec, h.nQueries.toDouble / (ms / 1000.0))
    }

    segmentCounts.flatMap {
      case 1 =>
        // Unsegmented baseline row (segments = 1, spill 0%): one HNSW index;
        // physical and virtual spill coincide by construction.
        val (rec, qps) = measure("seg1", new RandomSegmenter(1))
        Seq(Row(1, 0, rec, qps, rec, qps))
      case m =>
        spillPercents.map { pct =>
          val alpha = pct / 200.0 // spill% = 2α·100
          val virt = SegmenterLearner.learnAPD(h.sample, h.ds.dim,
            Integer.numberOfTrailingZeros(m), alpha, h.segmenterSeed)
          val phys = virt.withPhysicalSpill(true)
          val (pr, pq) = measure(s"seg${m}_s${pct}_phys", phys)
          val (vr, vq) = measure(s"seg${m}_s${pct}_virt", virt)
          Row(m, pct, pr, pq, vr, vq)
        }
    }
  }
}
