package repro.core.query

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit, sum}

/** One unary factor f(attr) of a product measure. */
final case class Factor(attr: String, fn: ScalarFn = ScalarFn.Identity) {
  def column: Column = fn.column(attr)
  def sql: String = fn.sql(attr)
  /** Canonical identifier for signature-based aggregate dedup. */
  def tag: String = s"${fn.tag}($attr)"
}

/** The one way the engine and the baselines compute SUM-of-products
  * aggregates on Spark.
  */
object SumProduct {

  /** Π f_i(a_i) × Π aggCols, folded from 1.0: an empty product is 1, whose SUM counts tuples. */
  def column(factors: Seq[Factor], aggCols: Seq[String]): Column =
    (factors.map(_.column) ++ aggCols.map(col)).foldLeft(lit(1.0))(_ * _)

  /** One aggregate pass over `frame`: `SUM(column) AS name` for each named
    * column, grouped by `keys` (a single row when `keys` is empty).
    */
  def aggregate(frame: DataFrame, keys: Seq[String], sums: Seq[(String, Column)]): DataFrame = {
    val exprs = sums.map { case (name, c) => sum(c).as(name) }
    frame.groupBy(keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
  }
}

/** A measure SUM(Π_i f_i(a_i)) — the aggregate class LMFAO optimises.
  *
  * An empty factor list is SUM(1), i.e. COUNT(*) under natural-join
  * multiplicity semantics.
  */
final case class Measure(name: String, factors: Seq[Factor]) {
  require(name.nonEmpty, "measure name must be non-empty")

  /** DuckDB SQL aggregate expression (aliased). */
  def sql: String =
    if (factors.isEmpty) s"SUM(CAST(1 AS DOUBLE)) AS $name"
    else s"SUM(${factors.map(_.sql).mkString(" * ")}) AS $name"

  def attrs: Set[String] = factors.map(_.attr).toSet
}

object Measure {
  /** COUNT(*) as SUM(1). */
  def count(name: String): Measure = Measure(name, Nil)

  /** SUM(attr). */
  def sum(name: String, attr: String): Measure = Measure(name, Seq(Factor(attr)))

  /** SUM(a*b). */
  def sumProduct(name: String, a: String, b: String): Measure =
    Measure(name, Seq(Factor(a), Factor(b)))

  /** SUM(attr²). */
  def sumSquare(name: String, attr: String): Measure =
    Measure(name, Seq(Factor(attr, ScalarFn.Square)))
}
