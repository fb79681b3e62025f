package repro.core.query

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions.{col, grouping_id, lit, sum, when}

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

  /** Prefix of every column name the engine generates. Batches may not use it. */
  val Reserved = "lmfao_"
  private val GroupingId = s"${Reserved}gid"

  /** Several aggregate passes over `frame` as one: member i is `SUM(column)
    * AS name` for each of its named columns, grouped by its keys. Members
    * with one key set are one [[aggregate]]; otherwise one grouping-sets
    * aggregate over the union of the keys, whose rows are told apart by
    * `grouping_id()` (never by nulls: key values can be null) and where each
    * SUM reads only its member's rows.
    */
  def fused(frame: DataFrame, members: Seq[(Seq[String], Seq[(String, Column)])]): Fused = {
    // Names may repeat across members, so the fused frame uses reserved aliases.
    val aliased = members.zipWithIndex.map { case ((keys, sums), i) =>
      keys -> sums.zipWithIndex.map { case ((name, c), j) => (s"${Reserved}m${i}_$j", name, c) }
    }
    val shape = aliased.map { case (keys, sums) => keys -> sums.map { case (alias, name, _) => alias -> name } }
    val sets = members.map(_._1.toSet).distinct
    if (sets.size == 1)
      new Fused(aggregate(frame, members.head._1, aliased.flatMap(_._2.map { case (a, _, c) => a -> c })), shape, None)
    else {
      val all = members.flatMap(_._1).distinct
      // grouping_id() sets bit (n-1-j) when the j-th grouping column is not in the set.
      val gids = members.map { case (keys, _) =>
        all.indices.collect { case j if !keys.contains(all(j)) => 1L << (all.size - 1 - j) }.sum
      }
      val exprs = aliased.zip(gids).flatMap { case ((_, sums), g) =>
        sums.map { case (alias, _, c) => sum(when(grouping_id() === g, c)).as(alias) }
      }
      val out = frame.groupingSets(sets.map(s => all.filter(s).map(col)), all.map(col): _*)
        .agg(grouping_id().as(GroupingId), exprs: _*)
      new Fused(out, shape, Some(gids))
    }
  }

  /** The result of [[fused]]: one frame holding the rows of every member. */
  final class Fused private[SumProduct] (val frame: DataFrame, shape: Seq[(Seq[String], Seq[(String, String)])],
                                         gids: Option[Seq[Long]]) {

    /** Member i's rows of `df`, a frame with `frame`'s schema: its keys, then its named sums. */
    def member(df: DataFrame, i: Int): DataFrame = {
      val (keys, sums) = shape(i)
      gids.fold(df)(g => df.where(col(GroupingId) === g(i)))
        .select(keys.map(col) ++ sums.map { case (alias, name) => col(alias).as(name) }: _*)
    }

    /** Collects `frame` once and returns every member as a local DataFrame,
      * which starts no Spark job when read. A member without keys has one row
      * (NULL sums on empty input), as a global aggregate does; a grouping set
      * without keys has no row on empty input, so that row is added here.
      */
    def collectMembers(): Seq[DataFrame] = {
      val rows = frame.collect()
      val emptyScalars = gids.toSeq.flatMap { g =>
        shape.indices.filter(i => shape(i)._1.isEmpty && !rows.exists(_.getAs[Long](GroupingId) == g(i)))
          .map(i => Row.fromSeq(frame.columns.toSeq.map(c => if (c == GroupingId) g(i) else null)))
      }
      val local = frame.sparkSession.createDataFrame((rows ++ emptyScalars).toSeq.asJava, frame.schema)
      shape.indices.map(member(local, _))
    }
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
