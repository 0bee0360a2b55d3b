package repro.experiments

import java.nio.file.Files
import repro.SparkSpec
import repro.eval.Recall

class HarnessSpec extends SparkSpec {

  private val tiny = DatasetSpec("tiny", n = 300, dim = 4, nClusters = 3, std = 0.2,
    nQueries = 20, seed = 7L)

  private def cached = spark.sparkContext.getPersistentRDDs.keySet

  test("run releases the data, queries and truth it cached, also when its body throws") {
    val before = cached
    val (inside, recall) = Harness.run(spark, tiny, 5) { h =>
      val dir = Files.createTempDirectory("harness").toString
      val (meta, _) = h.build(1, h.segmenter("APD", 2), Harness.Hnsw, dir, 2)
      (cached -- before, h.bestOfTwo(meta, 2)(Recall.atK(_, h.truth, 5))._1)
    }
    assert(inside.nonEmpty)
    assert(recall > 0.5, s"recall@5 $recall")
    assert(cached === before)

    intercept[IllegalStateException](Harness.run(spark, tiny, 5)(_ => throw new IllegalStateException))
    assert(cached === before)
  }
}
