package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.{AnnTableExperiment, ExpTable, RealWorldExperiment, SpillExperiment}

/** spark-submit entrypoint reproducing one group of the paper's tables with
  * the configuration its `bench/` suite runs:
  *  - `sift`: Tables 1–3, siftLite at (1,8)- and (2,4)-partitioning;
  *  - `gist`: Tables 4–6, gistLite at (1,8)-partitioning;
  *  - `spill`: Table 7, physical vs virtual spill on groupsLite;
  *  - `real`: Tables 8 & 9, the four real-world stand-ins.
  *
  * Usage: spark-submit --class repro.jobs.Tables <jar> <sift|gist|spill|real> [workDir]
  */
object Tables {
  private val runs: Map[String, (SparkSession, String) => Seq[ExpTable]] = Map(
    "sift" -> ((spark, dir) => AnnTableExperiment.run(spark, AnnTableExperiment.sift(dir))._2),
    "gist" -> ((spark, dir) => AnnTableExperiment.run(spark, AnnTableExperiment.gist(dir))._2),
    "spill" -> ((spark, dir) => Seq(SpillExperiment.run(spark, dir)._2)),
    "real" -> ((spark, dir) => RealWorldExperiment.run(spark, dir)._2),
  )

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && runs.contains(args(0)),
      s"usage: Tables <${runs.keys.toSeq.sorted.mkString("|")}> [workDir]")
    val spark = SparkSession.builder().appName(s"lanns-${args(0)}-tables").getOrCreate()
    val tables = runs(args(0))(spark, JobInputs.arg(args, 1, "target/jobs-work"))
    tables.foreach(t => println(t.render + "\n"))
    spark.stop()
  }
}
