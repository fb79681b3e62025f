package repro.core.baseline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel

import repro.core.query.{AggQuery, SumProduct}
import repro.core.schema.JoinTree

/** The mainstream strategies LMFAO is compared against (paper §1: systems
  * that materialise the join and evaluate each aggregate on it, or re-run a
  * join+aggregate query per aggregate).
  */
object Baselines {

  /** Natural join of all relations, composed along the tree's BFS edges. */
  def joinAll(tree: JoinTree, tables: Map[String, DataFrame]): DataFrame =
    tree.bfsEdges.foldLeft(tables(tree.relations.head.name)) { case (acc, (n, m)) =>
      acc.join(tables(m), tree.joinKeys(n, m), "inner")
    }

  /** Evaluate one query over an (already joined) dataset D. */
  def aggOver(d: DataFrame, q: AggQuery): DataFrame = {
    val filtered = q.filters.foldLeft(d)((acc, p) => acc.where(p.column))
    SumProduct.aggregate(filtered, q.groupBy, q.measures.map(m => m.name -> SumProduct.column(m.factors, Nil)))
      .select(q.outputColumns.map(col): _*)
  }

  /** Per-query baseline: the join is recomputed for every query (no sharing
    * at all — each aggregate is its own join+aggregate Spark job).
    */
  def runPerQuery(tree: JoinTree, tables: Map[String, DataFrame],
                  queries: Seq[AggQuery]): Map[String, DataFrame] =
    queries.map(q => q.name -> aggOver(joinAll(tree, tables), q)).toMap

  /** Shared-join baseline: materialise (cache) D once, then run one group-by
    * aggregate per query over it — the TensorFlow / scikit-learn-over-Pandas
    * export-the-join strategy.
    */
  def runSharedJoin(tree: JoinTree, tables: Map[String, DataFrame],
                    queries: Seq[AggQuery]): (DataFrame, Map[String, DataFrame]) = {
    val d = joinAll(tree, tables).persist(StorageLevel.MEMORY_AND_DISK)
    (d, queries.map(q => q.name -> aggOver(d, q)).toMap)
  }

  /** Fused baseline: the whole batch as one aggregate pass over the join D,
    * with the engine's fused aggregate (`SumProduct.fused`) and one collect.
    * D is read once, so nothing is cached. Results are local DataFrames.
    */
  def runFused(tree: JoinTree, tables: Map[String, DataFrame],
               queries: Seq[AggQuery]): Map[String, DataFrame] = {
    require(queries.map(_.filters.toSet).distinct.size == 1, "a fused batch needs one shared filter set")
    val d = queries.head.filters.foldLeft(joinAll(tree, tables))((acc, p) => acc.where(p.column))
    val fused = SumProduct.fused(d, queries.map(q =>
      q.groupBy -> q.measures.map(m => m.name -> SumProduct.column(m.factors, Nil))))
    queries.map(_.name).zip(fused.collectMembers()).toMap
  }
}
