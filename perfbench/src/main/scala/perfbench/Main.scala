package perfbench

import java.io.File
import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{Distance, QueryRow, VecRow}
import repro.eval.Recall
import repro.lanns.{Indexer, LannsMeta, Querier, SparkBruteForce}
import repro.segment.{RandomSegmenter, Segmenter, SegmenterLearner}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

/** The LANNS benchmark: one run of one workload.
  *
  * A run starts the Spark session and caches its inputs several times
  * (keeping the median) and makes one warm-up pass, then repeats the three
  * user-facing jobs — the Spark
  * brute-force ground truth (§5.4), the index build (§5.1–5.2) and the
  * batch query (§5.3) — for the requested number of seconds, and checks the
  * outputs. With `--trace 0` it prints the end-to-end metrics; with
  * `--trace 1` it alternates untraced and traced repetitions, replays every
  * layer without Spark, and prints the per-layer metrics. The last stdout
  * line is the JSON result; a failed check prints `"correct": false` and
  * exits with code 1.
  *
  * Usage: perfbench.Main --workload <name> --seed <n> --seconds <s>
  *          --trace <0|1> --work <dir> --embeddings <file>
  *          [--git-sha <sha>] [--source-hash <h>]
  */
object Main {

  val SetupRepeats = 3
  val ShufflePartitions = 8
  /** Spark cores: one fewer than the machine has, at most 3, so the driver's
    * own threads (JIT, GC, scheduler) do not steal time from the slowest task;
    * on a 4-core machine this made per-group build times visibly steadier.
    */
  def sparkCores: Int = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))
  val TruthSample = 32
  val FixedHoldOut = 500
  val FixedRecallFloor = 0.85
  /** Query beam on the fixed input: its real embeddings are harder than the
    * mixture, and a wider beam keeps its recall high enough for a tight floor.
    */
  val FixedEf = 50

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        work: File, gitSha: String, sourceHash: String, embeddings: File)

  /** The three jobs over one set of inputs. Each materializes its result
    * (`cache` + `count`), so its wall time covers the whole Spark job.
    */
  final class Jobs(w: Workload, data: Dataset[VecRow], queries: Dataset[QueryRow],
                   cores: Int, slots: Int, tracer: Tracer) {

    def bruteforce(): DataFrame = tracer("lanns.SparkBruteForce.search") {
      val df = SparkBruteForce.search(data, queries, w.topK, w.distance, cores).cache()
      df.count()
      df
    }

    /** Returns the index metadata, the segmenter-learning seconds and the
      * `Indexer.build` seconds.
      */
    def build(dir: String): (LannsMeta, Double, Double) = {
      val t0 = System.nanoTime()
      val segmenter: Segmenter = w.apdAlpha match {
        case Some(alpha) =>
          val sample = tracer("segment.SegmenterLearner.sample") {
            SegmenterLearner.sample(data, 20000)
          }
          val depth = Integer.numberOfTrailingZeros(w.segments)
          tracer("segment.SegmenterLearner.learnAPD") {
            SegmenterLearner.learnAPD(sample, w.dim, depth, alpha)
          }
        case None => new RandomSegmenter(w.segments)
      }
      val t1 = System.nanoTime()
      val meta = tracer("lanns.Indexer.build") {
        Indexer.build(data, w.dim, w.shards, segmenter, w.distance, w.hnsw, dir, slots)
      }
      (meta, (t1 - t0) / 1e9, (System.nanoTime() - t1) / 1e9)
    }

    def query(meta: LannsMeta): DataFrame = tracer("lanns.Querier.search") {
      val df = Querier.search(queries, meta, w.topK, w.ef, w.confidence, slots).cache()
      df.count()
      df
    }
  }

  /** One repetition of the three jobs. */
  final case class Rep(truth: DataFrame, result: DataFrame, meta: LannsMeta, traced: Boolean,
                       bruteforceS: Seq[Double], buildS: Double, learnS: Double, indexerS: Double,
                       queryS: Seq[Double], indexBytes: Long)

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch {
        case e: IllegalArgumentException if e.getMessage.startsWith("usage") =>
          Console.err.println(e.getMessage); 2
        case e: Throwable => e.printStackTrace(); 1
      }
    System.exit(code)
  }

  private def parse(args: Array[String]): Opts = {
    val usage = "usage: perfbench.Main --workload <" + Workloads.All.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> --work <dir> --embeddings <file>"
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(usage))
    val w = Workloads.byName(need("workload")).getOrElse(throw new IllegalArgumentException(usage))
    Opts(w, need("seed").toLong, need("seconds").toInt, need("trace") == "1", new File(need("work")),
      kv.getOrElse("git-sha", "unknown"), kv.getOrElse("source-hash", "unknown"),
      new File(need("embeddings")))
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val out = body
    (out, seconds(t0))
  }

  private def median(xs: Iterable[Double]): Double = {
    val s = xs.toIndexedSeq.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) f.listFiles().foreach(deleteTree)
    f.delete()
  }

  private def treeBytes(f: File): Long =
    if (f.isDirectory) f.listFiles().map(treeBytes).sum else f.length

  private def session(o: Opts, cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.default.parallelism", cores)
      .config("spark.local.dir", new File(o.work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(o.work, "warehouse").getPath)
      .config("spark.sql.adaptive.enabled", true)
      .getOrCreate()

  def run(o: Opts): Int = {
    val w = o.workload
    val cores = sparkCores
    val slots = if (w.partitioned) cores else 1
    val runId = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    val tracer = new Tracer(runId)
    val tStart = System.nanoTime()
    o.work.mkdirs()
    val idxDir = new File(o.work, "index")

    def phase(name: String): Unit = Console.err.println(f"[perfbench] t=${seconds(tStart)}%.1f s $name")

    // Set-up: session start with input generation and caching, repeated
    // (each restart stops the previous session), then one warm-up pass of
    // the three jobs on half the inputs. setup_s is the median session
    // set-up plus the warm-up; the warm-up is not repeated, as JIT and
    // generated code outlive a session restart.
    var spark: SparkSession = null
    var inputs: Inputs = null
    var jobs: Jobs = null
    tracer.enabled = o.trace
    val sessionS = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      timed(tracer("setup") {
        val ss = tracer("spark.session")(session(o, cores))
        ss.sparkContext.setLogLevel("WARN")
        spark = ss
        import ss.implicits._
        inputs = tracer("inputs.generate")(Inputs.generate(w, o.seed))
        val data = ss.createDataset(inputs.rows.toSeq).cache()
        val queries = ss.createDataset(inputs.queries.toSeq).cache()
        tracer("inputs.cache") { data.count(); queries.count() }
        jobs = new Jobs(w, data, queries, cores, slots, tracer)
      })._2
    }
    val warmupS = timed(tracer("warmup") {
      val ss = spark
      import ss.implicits._
      val warm = new Jobs(w, ss.createDataset(inputs.rows.take(w.rows / 2).toSeq),
        ss.createDataset(inputs.queries.take(w.queries / 2).toSeq), cores, slots, tracer)
      val warmDir = new File(o.work, "warmup")
      deleteTree(warmDir)
      warm.bruteforce().unpersist()
      warm.query(warm.build(warmDir.getPath)._1).unpersist()
      deleteTree(warmDir)
    })._2
    val setupS = median(sessionS) + warmupS
    phase("set up")
    Console.err.println(f"[perfbench] $runId inputs=${inputs.checksum} session_s=${sessionS.mkString(",")} " +
      f"warmup_s=$warmupS%.3f")

    // Measured repetitions. Tracing alternates off/on in a traced run, so the
    // traced-minus-untraced difference is the tracing overhead.
    val qids = inputs.queries.map(_.qid).toSet
    val reps = ArrayBuffer.empty[Rep]
    var attempted = 0L
    var failed = 0L
    val repWallS = ArrayBuffer.empty[Double]
    val tMeasure = System.nanoTime()
    // At least three repetitions; more while the next one still ends within
    // the requested seconds.
    def more =
      if (o.trace) reps.length < 4
      else reps.length < 3 || seconds(tMeasure) + median(repWallS) <= o.seconds
    while (more) {
      val tRep = System.nanoTime()
      tracer.enabled = o.trace && reps.length % 2 == 1
      deleteTree(idxDir)
      val rep = tracer("rep") {
        val truths = Seq.fill(w.passes)(timed(tracer("job.bruteforce")(jobs.bruteforce())))
        truths.tail.foreach(_._1.unpersist())
        val ((meta, learnS, indexerS), buildS) = timed(tracer("job.build")(jobs.build(idxDir.getPath)))
        val passes = Seq.fill(w.passes)(timed(tracer("job.query")(jobs.query(meta))))
        passes.tail.foreach { case (df, _) =>
          failed += Checks.shortQueries(df, qids, w.topK)
          df.unpersist()
        }
        Rep(truths.head._1, passes.head._1, meta, tracer.enabled, truths.map(_._2), buildS, learnS,
          indexerS, passes.map(_._2), treeBytes(idxDir))
      }
      tracer.enabled = o.trace
      attempted += qids.size.toLong * w.passes
      failed += Checks.shortQueries(rep.result, qids, w.topK)
      if (reps.nonEmpty) { rep.truth.unpersist(); rep.result.unpersist() }
      reps += rep
      repWallS += seconds(tRep)
      Console.err.println(f"[perfbench] rep ${reps.length}%d traced=${rep.traced} " +
        f"bruteforce_s=${rep.bruteforceS.map(b => f"$b%.3f").mkString(",")} " +
        f"build_s=${rep.buildS}%.3f query_s=${rep.queryS.map(q => f"$q%.3f").mkString(",")}")
    }

    phase("measured")
    // Output checks on the first repetition, untimed.
    val first = reps.head
    val problems = ArrayBuffer.empty[String]
    val (recall10, recallK) = tracer("check") {
      val truth = Checks.collect(first.truth)
      val inCorpus = (id: Long) => id >= 0 && id < w.rows
      val qidSeq = inputs.queries.map(_.qid).toSeq
      problems ++= Checks.topK("ground truth", truth, qidSeq, w.topK, inCorpus)
      problems ++= Checks.topK("query result", Checks.collect(first.result), qidSeq, w.topK, inCorpus)
      problems ++= Checks.truthSample(truth, inputs, w.topK, w.distance, o.seed, TruthSample)
      val r10 = Recall.atK(first.result, first.truth, 10)
      val rK = Recall.atK(first.result, first.truth, w.topK)
      if (r10 < w.recallFloor10) problems += f"recall@10 $r10%.4f below floor ${w.recallFloor10}"
      if (rK < w.recallFloorK) problems += f"recall@${w.topK} $rK%.4f below floor ${w.recallFloorK}"
      if (failed > 0) problems += s"$failed of $attempted queries got fewer than ${w.topK} rows"
      first.truth.unpersist(); first.result.unpersist()
      (r10, rK)
    }
    val fixed = if (w.name == Workloads.CosineHnsw.name) Some(fixedCheck(spark, o, cores, problems)) else None
    phase("checked")
    val perLayer = if (!o.trace) ListMap.empty[String, Double] else {
      val traced = reps.filter(_.traced)
      val untraced = reps.filterNot(_.traced)
      val last = traced.last
      val replayDir = new File(o.work, "replay")
      deleteTree(replayDir)
      val layers = tracer("replay") {
        Replay.run(spark, w, inputs, last.meta,
          Replay.Measured(last.indexerS, median(traced.map(_.learnS)), median(last.queryS), slots),
          replayDir, tracer)
      }
      deleteTree(replayDir)
      def qps(r: Rep) = inputs.queries.length / median(r.queryS)
      layers ++ ListMap(
        "trace.overhead.build_s" -> (median(traced.map(_.buildS)) - median(untraced.map(_.buildS))),
        "trace.overhead.query_qps" -> (median(traced.map(qps)) - median(untraced.map(qps))),
      )
    }
    deleteTree(idxDir)

    val endToEnd = ListMap(
      "setup_s" -> ("s", setupS),
      "bruteforce_s" -> ("s", median(reps.flatMap(_.bruteforceS))),
      "build_s" -> ("s", median(reps.map(_.buildS).toSeq)),
      "query_qps" -> ("queries/s", median(reps.flatMap(_.queryS).map(inputs.queries.length / _))),
      "recall_at_10" -> ("fraction", recall10),
      "recall_at_k" -> ("fraction", recallK),
      "full_query_frac" -> ("fraction", 1.0 - failed.toDouble / attempted),
      "index_mb" -> ("MB", first.indexBytes / 1e6),
    )
    val units = Map(
      "vectors.dist_ns" -> "ns", "hnsw.insert_us" -> "us", "hnsw.search_us.p50" -> "us",
      "hnsw.search_us.p99" -> "us", "hnsw.searches" -> "count", "hnsw.search_cpu_s" -> "s",
      "hnsw.load_ms" -> "ms", "hnsw.write_ms" -> "ms", "hnsw.bytes_per_vec" -> "bytes",
      "segment.learn_s" -> "s", "segment.route_us" -> "us", "segment.fanout" -> "groups",
      "segment.spill_frac" -> "fraction", "segment.skew" -> "ratio", "indexer.slot_ms_max" -> "ms",
      "indexer.overhead_s" -> "s", "querier.hits_per_query" -> "hits", "querier.hit_yield" -> "fraction",
      "querier.merge_s" -> "s", "querier.overhead_s" -> "s", "bruteforce.topk_us" -> "us",
      "trace.overhead.build_s" -> "s", "trace.overhead.query_qps" -> "queries/s")
    val metrics: ListMap[String, (String, Double)] =
      if (o.trace) perLayer.map { case (k, v) => k -> (units(k), v) } else endToEnd

    spark.stop()
    phase("stopped")

    val record = ListMap(
      "run" -> runId,
      "git_sha" -> o.gitSha,
      "source_hash" -> o.sourceHash,
      "workload" -> w.name,
      "seed" -> o.seed,
      "trace" -> o.trace,
      "input_checksum" -> inputs.checksum,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "spark_master" -> s"local[$cores]",
      "spark_shuffle_partitions" -> ShufflePartitions,
      "spark_adaptive" -> true,
      "slots" -> slots,
      "config" -> w.toString,
      "configured_spill_2alpha" -> w.apdAlpha.map(2 * _),
      "session_s" -> sessionS,
      "warmup_s" -> warmupS,
      "reps" -> reps.map(r => ListMap("traced" -> r.traced, "bruteforce_s" -> r.bruteforceS,
        "build_s" -> r.buildS, "learn_s" -> r.learnS, "indexer_s" -> r.indexerS, "query_s" -> r.queryS,
        "slot_build_ms" -> r.meta.indexes.map(_.buildMillis), "group_rows" -> r.meta.indexes.map(_.count))),
      "fixed_cosine_recall_at_10" -> fixed,
      "problems" -> problems,
      "metrics" -> metrics.map { case (k, (u, v)) => k -> ListMap("value" -> v, "unit" -> u) },
      "self_time_s" -> ListMap(tracer.selfSeconds.toSeq.sortBy(-_._2): _*),
      "spans" -> tracer.toJson(tStart),
    )
    val runsDir = new File(o.work, "runs")
    runsDir.mkdirs()
    val recordFile = new File(runsDir, s"$runId.json")
    Files.writeString(recordFile.toPath, Json.render(record) + "\n")
    if (o.trace) tracer.selfSeconds.toSeq.sortBy(-_._2).foreach { case (n, s) =>
      Console.err.println(f"[perfbench] self $s%9.3f s  $n")
    }
    problems.foreach(p => Console.err.println(s"[perfbench] CHECK FAILED: $p"))
    Console.err.println(s"[perfbench] run record: ${recordFile.getPath}")

    println(Json.render(ListMap(
      "correct" -> problems.isEmpty,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (u, v)) => k -> ListMap("value" -> v, "unit" -> u) },
    )))
    if (problems.isEmpty) 0 else 1
  }

  /** The cosine pipeline on the fixed on-disk embeddings, untimed: 500
    * seeded rows held out as queries, recall@10 checked against brute force.
    */
  private def fixedCheck(spark: SparkSession, o: Opts, cores: Int,
                         problems: ArrayBuffer[String]): Double = {
    import spark.implicits._
    val w = Workloads.CosineHnsw
    val in = Inputs.embeddings(spark, o.embeddings.getPath, o.seed, FixedHoldOut)
    val data = spark.createDataset(in.rows.toSeq).cache()
    val queries = spark.createDataset(in.queries.toSeq).cache()
    val dir = new File(o.work, "fixed-index")
    deleteTree(dir)
    val truthDf = SparkBruteForce.search(data, queries, 10, Distance.Cosine, cores).cache()
    val meta = Indexer.build(data, in.rows.head.vec.length, 1, new RandomSegmenter(1),
      Distance.Cosine, w.hnsw, dir.getPath, 1)
    val resultDf = Querier.search(queries, meta, 10, FixedEf, None, 1).cache()
    val ids = in.rows.map(_.id).toSet
    val qids = in.queries.map(_.qid).toSeq
    problems ++= Checks.topK("fixed ground truth", Checks.collect(truthDf), qids, 10, ids.contains)
    problems ++= Checks.topK("fixed query result", Checks.collect(resultDf), qids, 10, ids.contains)
    val recall = Recall.atK(resultDf, truthDf, 10)
    if (recall < FixedRecallFloor) problems += f"fixed cosine recall@10 $recall%.4f below floor $FixedRecallFloor"
    Console.err.println(f"[perfbench] fixed cosine input ${in.checksum}: recall@10 $recall%.4f")
    Seq(truthDf, resultDf, data, queries).foreach(_.unpersist())
    deleteTree(dir)
    recall
  }
}
