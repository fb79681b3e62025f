package repro.core.baseline

import org.apache.spark.sql.functions.lit

import repro.{Oracle, SparkSpec, TestData}
import repro.core.exec.LmfaoExec
import repro.core.query._
import repro.core.viewgen.ViewGeneration

/** The baselines must agree with DuckDB and with the LMFAO engine — the same
  * semantics evaluated three ways.
  */
class BaselinesSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)
  private lazy val (starTree, starTables) = TestData.star(spark)

  private val batch = Seq(
    AggQuery("b1", Nil, Seq(Measure.count("c1"))),
    AggQuery("b2", Seq("a"), Seq(Measure.sum("s2", "d"))),
    AggQuery("b3", Seq("d"), Seq(Measure.sum("s3", "a"), Measure.count("c3"))),
    AggQuery("b4", Seq("b"), Seq(Measure("m4", Seq(Factor("a", ScalarFn.G), Factor("c"))))),
  )

  test("joinAll computes the natural join (count matches DuckDB)") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    Oracle.assertEquivalent(Baselines.aggOver(d, q),
      SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
  }

  test("joinAll column set is the union of all attributes") {
    val d = Baselines.joinAll(chainTree, chainTables)
    assert(d.columns.toSet == chainTree.allAttrs)
  }

  private lazy val trees =
    Seq(chainTree, starTree, repro.data.Favorita.tree(0.01), repro.data.Retailer.tree(0.01))

  test("bfsEdges reach every relation once, from one already joined, over shared keys") {
    trees.foreach { t =>
      val order = t.relations.head.name +: t.bfsEdges.map(_._2)
      assert(order.sorted == t.relations.map(_.name).sorted)
      t.bfsEdges.foreach { case (n, m) =>
        assert(order.indexOf(n) < order.indexOf(m), s"$n must be joined before $m")
        assert(t.joinKeys(n, m).nonEmpty, s"($n,$m) has no join keys")
      }
    }
  }

  test("fromClause and joinAll join the relations in the same order on the same keys") {
    trees.foreach { t =>
      val first +: joins = SqlRender.fromClause(t).split(" JOIN ").toSeq
      val steps = joins.map { j =>
        val Array(m, using) = j.split(" USING ")
        m -> using.stripPrefix("(").stripSuffix(")").split(", ").toSeq
      }
      // Spark's USING join outputs the keys, then the left's other columns,
      // then the right's; so joinAll's column order pins its join order.
      val expected = steps.foldLeft(t.relationByName(first).attrs) { case (cols, (m, keys)) =>
        keys ++ cols.filterNot(keys.contains) ++ t.relationByName(m).attrs.filterNot(keys.contains)
      }
      val tables = t.relations.map(r => r.name -> spark.range(0).select(r.attrs.map(a => lit(0L).as(a)): _*)).toMap
      assert(Baselines.joinAll(t, tables).columns.toSeq == expected, SqlRender.fromClause(t))
    }
  }

  test("per-query baseline matches DuckDB on the whole batch") {
    val results = Baselines.runPerQuery(chainTree, chainTables, batch)
    batch.foreach { q =>
      Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
    }
  }

  test("shared-join baseline matches DuckDB on the whole batch") {
    val (d, results) = Baselines.runSharedJoin(chainTree, chainTables, batch)
    batch.foreach { q =>
      Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
    }
    d.unpersist()
  }

  test("fused baseline matches DuckDB on the whole batch") {
    val results = Baselines.runFused(chainTree, chainTables, batch)
    batch.foreach { q =>
      Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
    }
  }

  test("fused baseline matches DuckDB on a filtered batch, empty D included") {
    for (p <- Seq(Predicate("a", CmpOp.Le, 4), Predicate("a", CmpOp.Gt, 999))) {
      val filtered = batch.map(_.copy(filters = Seq(p)))
      val results = Baselines.runFused(chainTree, chainTables, filtered)
      filtered.foreach { q =>
        Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
      }
    }
  }

  test("baseline and LMFAO agree on the star schema") {
    val queries = Seq(
      AggQuery("s1", Seq("u"), Seq(Measure.sum("x1", "x"))),
      AggQuery("s2", Seq("k1", "v"), Seq(Measure.count("c2"))),
    )
    val base = Baselines.runPerQuery(starTree, starTables, queries)
    val plan = ViewGeneration.plan(starTree, queries)
    val res = LmfaoExec.run(starTables, plan)
    queries.foreach { q =>
      val a = base(q.name).collect().map(_.toSeq.map(v => Option(v).fold("∅")(_.toString))).sortBy(_.mkString(","))
      val b = res.queryResults(q.name).collect().map(_.toSeq.map(v => Option(v).fold("∅")(_.toString))).sortBy(_.mkString(","))
      assert(a.toSeq == b.toSeq, s"LMFAO vs baseline disagree on ${q.name}")
    }
    res.cleanup()
  }

  test("aggOver applies filters") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = AggQuery("q", Seq("b"), Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Le, 4)))
    Oracle.assertEquivalent(Baselines.aggOver(d, q),
      SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
  }

  test("aggOver column order matches outputColumns") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = AggQuery("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s", "a")))
    assert(Baselines.aggOver(d, q).columns.toSeq == Seq("b", "c", "s"))
  }
}
