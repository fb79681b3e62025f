package repro.perfbench

import java.nio.file.{Files, Paths}

import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{CmpOp, Predicate}
import repro.ml.linalg.DenseMatrix
import repro.ml.linreg.{LinearRegression, Sigma}
import repro.ml.rkmeans.RkMeans
import repro.ml.tree.{DecisionTree, FeatureKind, Leaf, Split, TreeFeature}

/** The benchmark's own checks. Run from perfbench/ with `sbt test`; the test
  * JVM works in the repository root, where BENCHMARK.json lives.
  */
class BenchSpec extends AnyFunSuite {

  private lazy val spec: JValue = parse(new String(Files.readAllBytes(Paths.get("BENCHMARK.json")), "UTF-8"))

  private def declared(key: String): Seq[(String, String)] = {
    val JArray(ms) = spec \ key
    ms.map(m => ((m \ "name").asInstanceOf[JString].s, (m \ "unit").asInstanceOf[JString].s))
  }

  private def printed(opts: Bench.Options): Seq[(String, String)] = {
    val JObject(ms) = parse(Bench.run(opts).json) \ "metrics"
    ms.map { case (name, m) => (name, (m \ "unit").asInstanceOf[JString].s) }
  }

  test("declared workloads and metrics match BENCHMARK.json") {
    val JArray(ws) = spec \ "workloads"
    assert(ws.map(w => (w \ "name").asInstanceOf[JString].s) == Workload.all.map(_.name))
    assert(declared("end_to_end") == Bench.EndToEnd.map(m => (m.name, m.unit)))
    assert(declared("per_layer") == Bench.PerLayer.map(m => (m.name, m.unit)))
  }

  test("printed metric names and units match BENCHMARK.json, untraced and traced") {
    val untraced = printed(Bench.Options(RkMeansFavorita, seed = 5, seconds = 0.1, trace = false))
    assert(untraced == declared("end_to_end"))
    val traced = printed(Bench.Options(RkMeansFavorita, seed = 5, seconds = 0.1, trace = true))
    assert(traced == declared("per_layer"))
  }

  test("a perturbed Σ counts as a failed run") {
    val f = repro.exp.Workloads.retailerLr.copy(continuous = Nil, categorical = Nil)
    val m = DenseMatrix.zeros(2, 2)
    m(0, 0) = 4; m(0, 1) = 10; m(1, 0) = 10; m(1, 1) = 30
    val sigma = Sigma(m, 4, f, Map.empty)
    val ref = (sigma, LinearRegression.trainBgd(sigma, LrRetailer.Lambda, LrRetailer.Iterations))
    val perturbed = m.copy
    perturbed(1, 1) = 31
    val a = new Attempts[LrRetailer.Out](LrRetailer.check(_, ref))
    a.attempt(ref)
    assert(a.failed == 0)
    a.attempt((Sigma(perturbed, 4, f, Map.empty), ref._2))
    assert((a.attempted, a.failed) == (2, 1))
    a.attempt(throw new IllegalStateException("engine failure"))
    assert((a.attempted, a.failed) == (3, 2))
  }

  test("a perturbed tree node counts as a failed run") {
    val split = Split(TreeFeature("prize", FeatureKind.Continuous), Predicate("prize", CmpOp.Le, 7), 1.0, 10, 20)
    val ref = DecisionTree.Trained(Leaf(1.0), Seq(
      DecisionTree.NodeTrace(Nil, 30, 5.0, Some(split)),
      DecisionTree.NodeTrace(Seq(split.predicate), 10, 1.0, None)))
    val a = new Attempts[CartRetailer.Out](CartRetailer.check(_, ref))
    a.attempt(ref)
    a.attempt(ref.copy(nodes = ref.nodes.updated(1, ref.nodes(1).copy(count = 11))))
    a.attempt(ref.copy(nodes = ref.nodes.updated(0, ref.nodes(0).copy(chosen = None))))
    assert((a.attempted, a.failed) == (3, 2))
  }

  test("a perturbed coreset counts as a failed run") {
    val ref = RkMeansFavorita.Summary(100, Map("units" -> Seq(1.0, 2.0)), 4)
    val out = RkMeans.Result(Array(Array(1.0)), Seq("units"), 4, 100, Map("units" -> Array(1.0, 2.0)), 0.5)
    val a = new Attempts[RkMeansFavorita.Out](RkMeansFavorita.check(_, ref))
    a.attempt(out)
    a.attempt(out.copy(coresetSize = 5))
    a.attempt(out.copy(datasetSize = 99))
    a.attempt(out.copy(perDimCentroids = Map("units" -> Array(1.0, 2.5))))
    assert((a.attempted, a.failed) == (4, 3))
  }

  test("Spark counts repeat exactly across two traced runs of one seed") {
    val (setup, Some(tr)) = Bench.setUp(RkMeansFavorita, seed = 5, traced = true)
    try {
      def replay(): Seq[(String, Counts)] = {
        tr.span("app")(RkMeansFavorita.replay(setup.spark, setup.data, tr))
        setup.counts.drain()
        val byGroup = setup.counts.byJobGroup
        val run = tr.spans.filter(_.name == "app").last.runId
        tr.spans.filter(_.runId == run).map { s =>
          // task run time is a measured duration, not a count
          s.name -> byGroup.getOrElse(tr.jobGroup(s.id), Counts()).copy(taskRunMs = 0)
        }
      }
      val first = replay()
      val second = replay()
      assert(first.map(_._2.stages).sum > 0)
      assert(first == second)
    } finally setup.spark.stop()
  }
}
