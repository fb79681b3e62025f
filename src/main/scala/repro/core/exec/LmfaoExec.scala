package repro.core.exec

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.broadcast
import org.apache.spark.storage.StorageLevel

import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.query.{Factor, Predicate, SumProduct}
import repro.core.schema.JoinTree
import repro.core.viewgen.{AggRef, Plan, ViewId}

/** The LMFAO execution layer on Spark.
  *
  * Each multi-output view group is one pass: the node's relation joined with
  * the group's incoming views, and *all* members of the group (the merged
  * views of a directional group, or every query output rooted at the node)
  * computed by one fused aggregate over that frame (`SumProduct.fused`: a
  * grouping-sets aggregate when the members group by different keys). This
  * is the paper's multi-output plan, with Catalyst/Tungsten in the role of
  * its code-generation layer.
  *
  * Two plan-time rules pick the physical plan: a view joins its consumer as
  * a broadcast when its size bound is at most the consumer relation's size,
  * and a frame is cached only when it is read more than once: a view read by
  * two or more groups, or a fused result feeding two or more views. An
  * output group's result is collected once, so every query result is a local
  * DataFrame and reading it starts no Spark job.
  */
object LmfaoExec {

  /** Execution result: per-query local DataFrames plus the views and the
    * groups that produced them (for inspection and benchmarks). `caches`
    * are the frames the run persisted; `cleanup` releases them.
    */
  final case class Result(
      queryResults: Map[String, DataFrame],
      viewFrames: Map[ViewId, DataFrame],
      groups: Seq[ViewGroup],
      caches: Seq[DataFrame],
  ) {
    /** Unpersist every frame cached by the run. */
    def cleanup(): Unit = caches.foreach(_.unpersist())
  }

  /** Run a plan over the given base relations, one DataFrame per relation
    * of the plan's join tree. All Spark work happens here.
    */
  def run(tables: Map[String, DataFrame], plan: Plan): Result = {
    plan.tree.relations.foreach { r =>
      require(tables.contains(r.name), s"missing DataFrame for relation ${r.name}")
      r.attrs.foreach(a => require(tables(r.name).columns.contains(a),
        s"relation ${r.name} DataFrame is missing attribute $a"))
    }

    // Per-attribute predicates push down to every relation containing the
    // attribute (sound for natural joins; see DESIGN.md).
    val filters = plan.queries.flatMap(_.filters).distinct
    require(
      plan.queries.map(_.filters.toSet).distinct.size <= 1,
      "all queries of one batch must share the same filter set (CART node batches do)")
    val filtered = applyFilters(plan.tree, tables, filters)

    val groups = DependencyGraph.groups(plan)
    val readers = groups.flatMap(_.incoming).groupBy(identity).map { case (v, gs) => v -> gs.size }
    val viewFrames = mutable.Map.empty[ViewId, DataFrame]
    val queryResults = mutable.Map.empty[String, DataFrame]
    val caches = mutable.ArrayBuffer.empty[DataFrame]
    def cachedIf(shared: Boolean)(df: DataFrame): DataFrame =
      if (!shared) df else { caches += df; df.persist(StorageLevel.MEMORY_AND_DISK) }

    groups.foreach { g =>
      val frame = g.incoming.foldLeft(filtered(g.node)) { (acc, vid) =>
        val keys = acc.columns.toSet intersect vid.keys.toSet
        require(keys.nonEmpty, s"no join keys between ${g.node} frame and ${vid.label}")
        val vf = viewFrames(vid)
        acc.join(if (sizeBound(plan.tree, vid) <= plan.tree.sizeOf(g.node)) broadcast(vf) else vf,
          keys.toSeq.sorted, "inner")
      }
      def product(fs: Seq[Factor], refs: Seq[AggRef]) = SumProduct.column(fs, refs.map(_.aggName))

      if (g.direction.isDefined) {
        val fused = SumProduct.fused(frame,
          g.views.map(v => v.id.keys -> v.aggs.map(a => a.name -> product(a.localFactors, a.childRefs))))
        val out = cachedIf(g.views.size > 1)(fused.frame)
        g.views.zipWithIndex.foreach { case (v, i) =>
          viewFrames(v.id) = cachedIf(g.views.size == 1 && readers(v.id) > 1)(fused.member(out, i))
        }
      } else {
        val fused = SumProduct.fused(frame, g.outputs.map(o => o.query.groupBy ->
          o.query.measures.zip(o.terms).map { case (m, t) => m.name -> product(t.localFactors, t.childRefs) }))
        g.outputs.zip(fused.collectMembers()).foreach { case (o, df) => queryResults(o.query.name) = df }
      }
    }

    Result(queryResults.toMap, viewFrames.toMap, groups, caches.toSeq)
  }

  /** An upper bound on the rows of view `v`: a view has at most one row per
    * tuple of its source relation and value of each key from elsewhere, and
    * at most one row per combination of key values, where a key's values are
    * bounded by the smallest relation that holds it.
    */
  private def sizeBound(tree: JoinTree, v: ViewId): Double = {
    def dom(k: String) = tree.relations.filter(_.has(k)).map(r => tree.sizeOf(r.name)).min.toDouble
    val from = tree.relationByName(v.from)
    math.min(tree.sizeOf(v.from) * v.keys.filterNot(from.has).map(dom).product, v.keys.map(dom).product)
  }

  /** Push each predicate to every relation that contains its attribute. */
  def applyFilters(tree: JoinTree, tables: Map[String, DataFrame],
                   filters: Seq[Predicate]): Map[String, DataFrame] =
    tables.map { case (name, df) =>
      val rel = tree.relationByName(name)
      val applicable = filters.filter(p => rel.has(p.attr))
      name -> applicable.foldLeft(df)((acc, p) => acc.where(p.column))
    }
}
