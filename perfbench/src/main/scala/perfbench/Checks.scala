package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.{BruteForce, Distance}
import scala.collection.immutable.ArraySeq

/** Output checks, run outside the timed region. Each returns the list of
  * problems found (empty when the output is correct), capped for printing.
  */
object Checks {

  /** One result row: neighbor id, distance, 1-based rank. */
  final case class Row(id: Long, dist: Double, rank: Int)

  /** Collect a (qid, id, dist, rank) result to the driver, rows of each qid
    * in the order of their rank.
    */
  def collect(df: DataFrame): Map[Long, Array[Row]] =
    df.select("qid", "id", "dist", "rank").collect()
      .map(r => (r.getLong(0), Row(r.getLong(1), r.getDouble(2), r.getInt(3))))
      .groupMap(_._1)(_._2)
      .map { case (q, rs) => q -> rs.sortBy(_.rank) }

  /** Queries of `qids` that are missing from `df` or got fewer or more than
    * `topK` rows.
    */
  def shortQueries(df: DataFrame, qids: Set[Long], topK: Int): Int = {
    val full = df.groupBy("qid").count().filter(col("count") === topK)
      .select("qid").collect().count(r => qids.contains(r.getLong(0)))
    qids.size - full
  }

  /** Every qid has exactly `topK` rows ranked 1..topK, distances do not
    * decrease, no id repeats within a qid, and every id is in the corpus.
    */
  def topK(what: String, got: Map[Long, Array[Row]], qids: Seq[Long], topK: Int,
           inCorpus: Long => Boolean): Seq[String] = {
    val errs = qids.iterator.flatMap { q =>
      got.get(q) match {
        case None => Some(s"$what: qid $q missing")
        case Some(rs) =>
          if (rs.length != topK) Some(s"$what: qid $q has ${rs.length} rows, expected $topK")
          else if (!rs.indices.forall(i => rs(i).rank == i + 1)) Some(s"$what: qid $q ranks not 1..$topK")
          else if (!rs.indices.tail.forall(i => rs(i - 1).dist <= rs(i).dist))
            Some(s"$what: qid $q distances decrease")
          else if (rs.map(_.id).distinct.length != rs.length) Some(s"$what: qid $q repeats an id")
          else rs.find(r => !inCorpus(r.id)).map(r => s"$what: qid $q returned id ${r.id} not in the corpus")
      }
    }
    val extra = got.keySet -- qids
    (errs.take(10).toSeq ++ extra.headOption.map(q => s"$what: unexpected qid $q")).toSeq
  }

  /** On `sample` seeded queries, the Spark ground truth equals the
    * Spark-free exact search `BruteForce.topK` (ids in order, distances).
    */
  def truthSample(truth: Map[Long, Array[Row]], inputs: Inputs, topK: Int, distance: Distance,
                  seed: Long, sample: Int): Seq[String] = {
    val items = ArraySeq.unsafeWrapArray(inputs.rows.map(r => (r.id, r.vec)))
    val r = new java.util.Random(seed ^ 0x7E57L)
    Seq.fill(sample)(inputs.queries(r.nextInt(inputs.queries.length))).distinct.flatMap { q =>
      val want = BruteForce.topK(items, q.vec, topK, distance)
      val got = truth.getOrElse(q.qid, Array.empty[Row])
      val same = got.length == want.length &&
        got.indices.forall(i => got(i).id == want(i).id && got(i).dist == want(i).dist)
      if (same) None else Some(s"ground truth: qid ${q.qid} differs from BruteForce.topK")
    }.take(10)
  }
}
