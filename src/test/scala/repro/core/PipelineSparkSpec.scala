package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.graph.GraphGen

import scala.collection.mutable

/** The offline build labels its Spark jobs by phase. */
class PipelineSparkSpec extends SparkSpec {

  test("build labels every Spark job it runs and clears the label afterwards") {
    val gf = GraphGen.nws(spark, 120, seed = 5L)
    val sc = spark.sparkContext
    val labels = mutable.ArrayBuffer[Option[String]]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = labels.synchronized {
        labels += Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description")))
      }
    }
    sc.addSparkListener(listener)
    try {
      Pipeline.build(spark, gf, rMax = 2)
      sc.parallelize(Seq(1)).count() // after the build: no label
      // Listener events arrive in order, so once this job is seen all are.
      sc.setJobDescription("end of test")
      sc.parallelize(Seq(1)).count()
      sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (labels.synchronized(!labels.contains(Some("end of test"))) && System.nanoTime() < deadline)
        Thread.sleep(20)
    } finally sc.removeSparkListener(listener)
    val seen = labels.synchronized(labels.toList)
    assert(seen.last == Some("end of test"))
    val build = seen.dropRight(2)
    assert(seen.init.last.isEmpty, s"label left set after build: $seen")
    assert(build.count(_ == Some("build: csr")) >= 2, s"jobs: $seen")
    assert(build.count(_ == Some("build: precompute")) >= 1, s"jobs: $seen")
    assert(build.forall(l => l.contains("build: csr") || l.contains("build: precompute")), s"jobs: $seen")
  }
}
