package repro.core.exec

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{Check, SparkSpec, TestData}
import repro.core.group.DependencyGraph
import repro.core.query._
import repro.core.schema.{JoinTree, Relation}
import repro.core.viewgen.ViewGeneration
import repro.exp.Workloads
import repro.ml.linreg.SigmaBatch

/** Engine-vs-DuckDB oracle tests over the micro schemas: every result the
  * engine produces is diffed against DuckDB running the textbook SQL over the
  * base relations.
  */
class LmfaoExecSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)
  private lazy val (starTree, starTables) = TestData.star(spark)
  private lazy val (singleTree, singleTables) = TestData.single(spark)

  private def q(name: String, groupBy: Seq[String], measures: Seq[Measure],
                filters: Seq[Predicate] = Nil) = AggQuery(name, groupBy, measures, filters)

  test("global count over the chain join") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.count("c")))))
  }

  test("global sum over an attribute of the root relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "a")))))
  }

  test("global sum over an attribute of a leaf relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "d")))))
  }

  test("global sum over a join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "b")))))
  }

  test("group-by on a root attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("a"), Seq(Measure.count("c")))))
  }

  test("group-by on a leaf attribute (carried keys)") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("d"), Seq(Measure.count("c")))))
  }

  test("group-by on a middle join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("c"), Seq(Measure.count("c0")))))
  }

  test("group-by with a sum from the opposite end of the chain") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("d"), Seq(Measure.sum("s", "a")))))
  }

  test("two group-by attributes from different relations") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("a", "d"), Seq(Measure.count("c")))))
  }

  test("multi-measure query computes all measures in one pass") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s1", "a"), Measure.sumSquare("s2", "d")))))
  }

  test("product measure across relations") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sumProduct("p", "a", "d")))))
  }

  test("product measure within one relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("c"), Seq(Measure.sumProduct("p", "a", "b")))))
  }

  test("UDF factors g and h") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure("m", Seq(Factor("a", ScalarFn.G), Factor("d", ScalarFn.H)))))))
  }

  test("square of a join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sumSquare("s", "c")))))
  }

  test("three-factor product measure") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Nil, Seq(Measure("m", Seq(Factor("a"), Factor("c"), Factor("d")))))))
  }

  test("same query is correct at every root") {
    for (root <- Seq("A", "B", "C")) {
      Check.lmfaoVsDuck(chainTree, chainTables,
        Seq(q(s"q$root", Seq("b"), Seq(Measure.sum("s", "d")))), Map(s"q$root" -> root))
    }
  }

  test("filter on the root relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Le, 5)))))
  }

  test("filter on a leaf relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("a"), Seq(Measure.sum("s", "d")), Seq(Predicate("d", CmpOp.Gt, 4)))))
  }

  test("filter on a join attribute applies everywhere") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Nil, Seq(Measure.count("c")), Seq(Predicate("c", CmpOp.Ne, 2)))))
  }

  test("conjunction of filters") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c")),
        Seq(Predicate("a", CmpOp.Ge, 2), Predicate("d", CmpOp.Lt, 8)))))
  }

  test("filter excluding every tuple yields the empty/null result") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("grouped", Seq("b"), Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Gt, 999)))))
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("global", Nil, Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Gt, 999)))))
    // Same root and incoming views: one fused grouping-sets pass, whose empty
    // grouping set has no row on empty input; the scalar query keeps its NULL row.
    val none = Seq(Predicate("a", CmpOp.Gt, 999))
    val mixed = Seq(q("scalar", Nil, Seq(Measure.count("c")), none), q("byA", Seq("a"), Seq(Measure.count("c")), none))
    val roots = Map("scalar" -> "A", "byA" -> "A")
    assert(DependencyGraph.groups(ViewGeneration.plan(chainTree, mixed, roots)).exists(_.outputs.size == 2))
    Check.lmfaoVsDuck(chainTree, chainTables, mixed, roots)
  }

  test("fused output group keeps NULL group-by values apart from other grouping sets") {
    import spark.implicits._
    val tree = JoinTree(Seq(Relation("A", Seq("a", "a2", "b")), Relation("B", Seq("b", "c"))), Seq(("A", "B")))
    val rng = new scala.util.Random(4)
    def maybe(n: Int) = if (rng.nextInt(3) == 0) None else Some(rng.nextInt(n) + 1L)
    val tables = Map(
      "A" -> Seq.fill(40)((maybe(4), maybe(3), rng.nextInt(5) + 1L)).toDF("a", "a2", "b"),
      "B" -> Seq.fill(20)((rng.nextInt(5) + 1L, rng.nextInt(7) + 1L)).toDF("b", "c"))
    val batch = Seq(
      q("byA", Seq("a"), Seq(Measure.count("n"), Measure.sum("s", "c"))),
      q("byA2", Seq("a2"), Seq(Measure.count("n"), Measure.sum("s", "c"))))
    val roots = Map("byA" -> "A", "byA2" -> "A")
    assert(DependencyGraph.groups(ViewGeneration.plan(tree, batch, roots)).exists(_.outputs.size == 2))
    Check.lmfaoVsDuck(tree, tables, batch, roots)
  }

  test("a batch of mixed queries with mixed roots") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("b1", Nil, Seq(Measure.count("c1"))),
      q("b2", Seq("a"), Seq(Measure.sum("s2", "d"))),
      q("b3", Seq("d"), Seq(Measure.sum("s3", "a"), Measure.count("c3"))),
      q("b4", Seq("b", "c"), Seq(Measure.sumProduct("p4", "a", "d"))),
    ))
  }

  test("star: global count with duplicate dimension keys (multiplicity)") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Nil, Seq(Measure.count("c")))))
  }

  test("star: group-by fact attribute, sum of dimension attribute") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("x"), Seq(Measure.sum("s", "u")))))
  }

  test("star: group-by attributes of both dimensions") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("u", "v"), Seq(Measure.count("c")))))
  }

  test("star: product of attributes from both dimensions") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("k1"), Seq(Measure.sumProduct("p", "u", "v")))))
  }

  test("star: query rooted at a dimension") {
    Check.lmfaoVsDuck(starTree, starTables,
      Seq(q("q", Seq("u"), Seq(Measure.sum("s", "x")))), Map("q" -> "D1"))
  }

  test("single relation: group-by and sums without any views") {
    Check.lmfaoVsDuck(singleTree, singleTables, Seq(
      q("q1", Seq("g"), Seq(Measure.count("c"), Measure.sum("s", "x"), Measure.sumSquare("s2", "y"))),
      q("q2", Nil, Seq(Measure.sumProduct("p", "x", "y"))),
    ))
  }

  test("missing relation DataFrame is rejected") {
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree,
      Seq(q("q", Nil, Seq(Measure.count("c")))))
    assertThrows[IllegalArgumentException](LmfaoExec.run(chainTables - "B", plan))
  }

  test("relation DataFrame missing an attribute is rejected") {
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree,
      Seq(q("q", Nil, Seq(Measure.count("c")))))
    val broken = chainTables.updated("B", chainTables("B").drop("c"))
    assertThrows[IllegalArgumentException](LmfaoExec.run(broken, plan))
  }

  test("mixed filter sets in one batch are rejected") {
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree, Seq(
      q("q1", Nil, Seq(Measure.count("c1")), Seq(Predicate("a", CmpOp.Le, 3))),
      q("q2", Nil, Seq(Measure.count("c2"))),
    ))
    assertThrows[IllegalArgumentException](LmfaoExec.run(chainTables, plan))
  }

  test("the Retailer Σ batch runs at most 4 Spark jobs per group, and its results none") {
    val (tree, tables) = TestData.retailerMicro(spark)
    val plan = ViewGeneration.plan(tree, SigmaBatch.queries(Workloads.retailerLr))
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    def withJobs[A](body: => A): (A, Int) = {
      ListenerBusDrain(spark.sparkContext)
      jobs.set(0)
      val out = body
      ListenerBusDrain(spark.sparkContext)
      (out, jobs.get)
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val (res, runJobs) = withJobs(LmfaoExec.run(tables, plan))
      assert(runJobs <= 4 * res.groups.size, s"$runJobs jobs for ${res.groups.size} groups")
      assert(withJobs(res.queryResults.values.foreach(_.collect()))._2 == 0)
      res.cleanup()
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  test("result column order matches the query's outputColumns") {
    val query = q("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s", "a")))
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree, Seq(query))
    val res = LmfaoExec.run(chainTables, plan)
    assert(res.queryResults("q").columns.toSeq == Seq("b", "c", "s"))
    res.cleanup()
  }
}
