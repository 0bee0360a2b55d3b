package perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core.{BruteForce, Hit, HnswIndex}
import repro.lanns.{Indexer, LannsMeta, PerShardTopK, Querier}
import scala.collection.immutable.{ArraySeq, ListMap}
import scala.collection.mutable.ArrayBuffer

/** Spark-free replays of each layer on the workload's own data and on the
  * index the traced build wrote: every call goes through the program's
  * public functions, one at a time on the driver thread, so each layer's
  * cost is measured alone.
  */
object Replay {

  /** What the traced pipeline measured, needed to split its wall times. */
  final case class Measured(indexerS: Double, learnS: Double, queryPassS: Double, slots: Int)

  def run(spark: SparkSession, w: Workload, inputs: Inputs, meta: LannsMeta, m: Measured,
          replayDir: File, tracer: Tracer): ListMap[String, Double] = {
    import spark.implicits._
    val kShard = w.confidence.map(PerShardTopK(w.topK, meta.numShards, _)).getOrElse(w.topK)
    val ef = math.max(w.ef, kShard)
    val nQ = inputs.queries.length
    def slotOf(shard: Int, segment: Int) = (shard * meta.numSegments + segment) % m.slots

    val distNs = tracer("core.Distance.apply") {
      val rows = inputs.rows
      val calls = 2000000
      var sink = 0.0
      val t0 = System.nanoTime()
      var i = 0
      while (i < calls) {
        sink += meta.distance(rows(i % rows.length).vec, rows((i * 7 + 1) % rows.length).vec)
        i += 1
      }
      val ns = (System.nanoTime() - t0).toDouble / calls
      if (sink == -1.0) println(sink) // keeps the loop from being optimised away
      ns
    }

    val loaded = tracer("lanns.Indexer.readIndexFile") {
      meta.indexes.map { im =>
        val t0 = System.nanoTime()
        val idx = Indexer.readIndexFile(im.path)
        (im, idx, System.nanoTime() - t0)
      }
    }
    val writeNs = tracer("lanns.Indexer.writeIndexFile") {
      loaded.map { case (im, idx, _) =>
        val t0 = System.nanoTime()
        Indexer.writeIndexFile(idx, Indexer.indexPath(replayDir.getPath, im.shard, im.segment))
        System.nanoTime() - t0
      }.sum
    }
    val indexBytes = meta.indexes.map(im => new File(im.path).length).sum

    val largestIdx = loaded.maxBy(_._1.count)._2
    val insertUs = tracer("core.HnswIndex.build") {
      val items = (0 until largestIdx.size).map { i =>
        val id = largestIdx.idOf(i)
        (id, inputs.rows(id.toInt).vec)
      }
      val t0 = System.nanoTime()
      HnswIndex.build(meta.dim, meta.distance, meta.params, items.iterator)
      (System.nanoTime() - t0) / 1e3 / items.length
    }

    val (routes, routeNs) = tracer("segment.Segmenter.routeQuery") {
      val t0 = System.nanoTime()
      val rs = inputs.queries.map(q => meta.segmenter.routeQuery(q.vec))
      (rs, System.nanoTime() - t0)
    }

    val byGroup = loaded.map { case (im, idx, _) => (im.shard, im.segment) -> idx }.toMap
    val slotNs = new Array[Long](m.slots)
    loaded.foreach { case (im, _, ns) => slotNs(slotOf(im.shard, im.segment)) += ns }
    val latNs = ArrayBuffer.empty[Long]
    val hits = ArrayBuffer.empty[Hit]
    tracer("core.HnswIndex.search") {
      inputs.queries.indices.foreach { qi =>
        val q = inputs.queries(qi)
        for (s <- 0 until meta.numShards; g <- routes(qi); idx <- byGroup.get((s, g))) {
          val t0 = System.nanoTime()
          val found = idx.search(q.vec, kShard, ef)
          val ns = System.nanoTime() - t0
          latNs += ns
          slotNs(slotOf(s, g)) += ns
          found.foreach(n => hits += Hit(q.qid, s, g, n.id, n.dist))
        }
      }
    }
    val lat = latNs.toArray.sorted
    def pct(p: Double) = lat(math.min(lat.length - 1, (p * lat.length).toInt)) / 1e3

    val hitsDf = spark.createDataset(spark.sparkContext.parallelize(hits.toSeq, m.slots))
      .toDF().cache()
    hitsDf.count()
    // The first two merges over this new plan compile and warm its code;
    // the third is timed.
    val mergeS = (1 to 3).map { _ =>
      tracer("lanns.Querier.mergeHits") {
        val t0 = System.nanoTime()
        val out = Querier.mergeHits(hitsDf, kShard, w.topK).cache()
        out.count()
        val s = (System.nanoTime() - t0) / 1e9
        out.unpersist()
        s
      }
    }.last
    hitsDf.unpersist()

    val topkUs = tracer("core.BruteForce.topK") {
      val part = ArraySeq.unsafeWrapArray(
        inputs.rows.take(inputs.rows.length / m.slots.max(1)).map(r => (r.id, r.vec)))
      val sample = inputs.queries.take(200)
      val t0 = System.nanoTime()
      sample.foreach(q => BruteForce.topK(part, q.vec, w.topK, meta.distance))
      (System.nanoTime() - t0) / 1e3 / sample.length
    }

    val bySlot = meta.indexes.groupMapReduce(im => slotOf(im.shard, im.segment))(_.buildMillis)(_ + _)
    val slotMsMax = bySlot.values.max.toDouble
    val counts = meta.indexes.map(_.count.toDouble)
    val hitsPerQuery = hits.length.toDouble / nQ
    ListMap(
      "vectors.dist_ns" -> distNs,
      "hnsw.insert_us" -> insertUs,
      "hnsw.search_us.p50" -> pct(0.5),
      "hnsw.search_us.p99" -> pct(0.99),
      "hnsw.searches" -> lat.length.toDouble,
      "hnsw.search_cpu_s" -> lat.map(_.toDouble).sum / 1e9,
      "hnsw.load_ms" -> loaded.map(_._3).sum / 1e6,
      "hnsw.write_ms" -> writeNs / 1e6,
      "hnsw.bytes_per_vec" -> indexBytes.toDouble / counts.sum,
      "segment.learn_s" -> m.learnS,
      "segment.route_us" -> routeNs / 1e3 / nQ,
      "segment.fanout" -> lat.length.toDouble / nQ,
      "segment.spill_frac" -> routes.count(_.length > 1).toDouble / nQ,
      "segment.skew" -> counts.max / (counts.sum / counts.length),
      "indexer.slot_ms_max" -> slotMsMax,
      "indexer.overhead_s" -> (m.indexerS - slotMsMax / 1e3),
      "querier.hits_per_query" -> hitsPerQuery,
      "querier.hit_yield" -> w.topK / hitsPerQuery,
      "querier.merge_s" -> mergeS,
      "querier.overhead_s" -> (m.queryPassS - mergeS - slotNs.max / 1e9),
      "bruteforce.topk_us" -> topkUs,
    )
  }
}
