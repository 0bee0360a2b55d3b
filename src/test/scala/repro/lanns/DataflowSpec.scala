package repro.lanns

import org.apache.spark.TaskContext
import repro.{SparkSpec, VectorData}
import repro.core.TaggedRow
import repro.segment.RandomSegmenter

class DataflowSpec extends SparkSpec {

  test("bySlot runs every slot in exactly one task, and one slot per task") {
    import spark.implicits._
    val seg = new RandomSegmenter(8)
    val tagged = VectorData.clustered(spark, 40000, 32, 8, seed = 1L).flatMap { r =>
      seg.routeData(r.id, r.vec).map(g => TaggedRow(r.id, r.vec, 0, g))
    }.cache()
    for (e <- Seq(2, 3, 4, 8)) {
      val placed = Dataflow.bySlot(tagged, 8, e) { case ((s, g), _) =>
        Iterator.single((TaskContext.getPartitionId(), Dataflow.slotOf(s, g, 8, e)))
      }.collect().toSeq
      val partitionsOfSlot = placed.groupMap(_._2)(_._1).view.mapValues(_.toSet).toMap
      val slotsOfPartition = placed.groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
      assert(partitionsOfSlot.keySet === (0 until e).toSet, s"E = $e")
      assert(partitionsOfSlot.values.forall(_.size == 1), s"E = $e: $partitionsOfSlot")
      assert(slotsOfPartition.values.forall(_.size == 1), s"E = $e: $slotsOfPartition")
    }
    tagged.unpersist()
  }
}
