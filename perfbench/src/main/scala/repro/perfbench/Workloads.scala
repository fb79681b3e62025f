package repro.perfbench

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.baseline.Baselines
import repro.core.exec.LmfaoExec
import repro.core.group.DependencyGraph
import repro.core.query.{AggQuery, CmpOp, Predicate}
import repro.core.schema.JoinTree
import repro.core.viewgen.ViewGeneration
import repro.data.{Favorita, Retailer}
import repro.exp.Workloads.{favoritaRkDims, retailerDt, retailerDtLabel, retailerLr}
import repro.ml.linalg.DenseMatrix
import repro.ml.linreg.{LinearRegression, Sigma, SigmaBatch}
import repro.ml.rkmeans.{RkMeans, WeightedKMeans}
import repro.ml.tree._

/** The join tree and base relations of one generated dataset. */
final case class Data(tree: JoinTree, tables: Map[String, DataFrame])

/** One benchmark workload: an application run end to end through its public
  * entry points (`app`), an independent reference computed over the
  * materialised join (`reference`, `check`), and a traced replay of the same
  * application through the layer functions it is built from (`replay`).
  */
sealed trait Workload {
  type Out
  type Ref
  def name: String
  def generate(spark: SparkSession, seed: Long): Data
  def reference(spark: SparkSession, data: Data): Ref
  def app(spark: SparkSession, data: Data): Out
  /** Mismatches between one application run and the reference; empty if none. */
  def check(out: Out, ref: Ref): Seq[String]
  def replay(spark: SparkSession, data: Data, tr: Tracer): Out
  def sameModel(a: Out, b: Out): Boolean
  /** A traced run of the same batch through a same-engine baseline, in a
    * `ref.sharedjoin` span, with its mismatches against the reference.
    */
  def baseline(data: Data, ref: Ref, tr: Tracer): Option[Seq[String]] = None
}

object Workload {
  /** Scale factor of both datasets. Run time follows the number of Spark
    * stages, not the data size, at this scale.
    */
  val Sf = 0.01

  val all: Seq[Workload] = Seq(LrRetailer, CartRetailer, RkMeansFavorita)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  def retailer(spark: SparkSession, seed: Long): Data =
    Data(Retailer.tree(Sf), Retailer.tables(spark, Sf, seed))

  def favorita(spark: SparkSession, seed: Long): Data =
    Data(Favorita.tree(Sf), Favorita.tables(spark, Sf, seed))

  /** One engine batch, each step in its own span: plan, group, lazy build,
    * collect (where Spark executes), cleanup. Results come back as local
    * DataFrames, so reading them starts no Spark job.
    */
  def engineBatch(spark: SparkSession, tr: Tracer, data: Data,
                  queries: Seq[AggQuery]): Map[String, DataFrame] = {
    val plan = tr.span("viewgen.plan")(ViewGeneration.plan(data.tree, queries))
    val stats = plan.stats(0)
    tr.count("viewgen.plans", 1)
    tr.count("viewgen.queries", stats.nQueries)
    tr.count("viewgen.views_unmerged", stats.nUnmergedViews)
    tr.count("viewgen.views_merged", stats.nMergedViews)
    tr.count("viewgen.agg_columns", stats.nAggColumns)
    tr.span("group.groups")(DependencyGraph.groups(plan))
    val res = tr.span("exec.run")(LmfaoExec.run(data.tables, plan))
    tr.count("group.groups", res.groups.size)
    val local = tr.span("exec.collect") {
      res.queryResults.map { case (q, df) =>
        val rows = df.collect()
        tr.count("exec.result_rows", rows.length)
        q -> spark.createDataFrame(rows.toSeq.asJava, df.schema)
      }
    }
    tr.span("exec.cleanup")(res.cleanup())
    local
  }

  /** The reference's one Spark query: the materialised join grouped by
    * `attrs`, with the multiplicity of each distinct tuple. References
    * aggregate these tuples on the driver, apart from the engine.
    */
  def joinCounts(data: Data, attrs: Seq[String]): Seq[(Map[String, Long], Double)] =
    Baselines.joinAll(data.tree, data.tables).groupBy(attrs.map(col): _*).count().collect().toSeq.map { r =>
      (attrs.map(a => a -> r.getAs[Long](a)).toMap, r.getAs[Long]("count").toDouble)
    }

  private[perfbench] def diff[A](what: String, got: A, want: A): Seq[String] =
    if (got == want) Nil else Seq(s"$what: got $got, reference $want")
}

/** Ridge regression over Retailer: the 86-query Σ batch, then BGD. */
object LrRetailer extends Workload {
  type Out = (Sigma, LinearRegression.Fit)
  type Ref = (Sigma, LinearRegression.Fit)
  val name = "lr-retailer"
  val Lambda = 1e-3
  val Iterations = 50

  def generate(spark: SparkSession, seed: Long): Data = Workload.retailer(spark, seed)

  /** The Σ batch over the materialised join (shared-join baseline). */
  def sharedJoin(data: Data): Sigma = {
    val (d, results) = Baselines.runSharedJoin(data.tree, data.tables, SigmaBatch.queries(retailerLr))
    val sigma = Sigma.assemble(results, retailerLr)
    d.unpersist()
    sigma
  }

  /** Σ = Σ_{x∈D} x xᵀ summed on the driver, in `Sigma`'s index layout:
    * intercept, continuous features, one index per observed categorical
    * value (sorted), label last.
    */
  def reference(spark: SparkSession, data: Data): Ref = {
    val f = retailerLr
    val tuples = Workload.joinCounts(data, f.contAll ++ f.categorical)
    var next = 1 + f.continuous.size
    val catValueIndex = f.categorical.map { c =>
      val values = tuples.map(_._1(c)).distinct.sorted
      val index = values.zipWithIndex.map { case (v, i) => v -> (next + i) }.toMap
      next += values.size
      c -> index
    }.toMap
    val dim = next + 1
    val m = DenseMatrix.zeros(dim, dim)
    tuples.foreach { case (t, cnt) =>
      val x = (0 -> 1.0) +: f.continuous.zipWithIndex.map { case (a, i) => (1 + i) -> t(a).toDouble } ++:
        f.categorical.map(c => catValueIndex(c)(t(c)) -> 1.0) :+ ((dim - 1) -> t(f.label).toDouble)
      for ((i, xi) <- x; (j, xj) <- x) m(i, j) = m(i, j) + cnt * xi * xj
    }
    val sigma = Sigma(m, tuples.map(_._2).sum, f, catValueIndex)
    (sigma, LinearRegression.trainBgd(sigma, Lambda, Iterations))
  }

  def app(spark: SparkSession, data: Data): Out = {
    val plan = ViewGeneration.plan(data.tree, SigmaBatch.queries(retailerLr))
    val res = LmfaoExec.run(data.tables, plan)
    val sigma = Sigma.assemble(res.queryResults, retailerLr)
    res.cleanup()
    (sigma, LinearRegression.trainBgd(sigma, Lambda, Iterations))
  }

  def check(out: Out, ref: Ref): Seq[String] = {
    val (s, fit) = out
    val (r, rfit) = ref
    val shape = Workload.diff("Σ dim", s.dim, r.dim) ++ Workload.diff("|D|", s.count, r.count) ++
      Workload.diff("categorical index", s.catValueIndex, r.catValueIndex)
    if (shape.nonEmpty) shape
    else {
      val cells = for {
        i <- 0 until s.dim
        j <- 0 until s.dim
        if s.matrix(i, j) != r.matrix(i, j)
      } yield s"Σ($i,$j): got ${s.matrix(i, j)}, reference ${r.matrix(i, j)}"
      cells.take(5) ++ Workload.diff("θ", fit.theta.toSeq, rfit.theta.toSeq)
    }
  }

  def replay(spark: SparkSession, data: Data, tr: Tracer): Out = {
    val results = Workload.engineBatch(spark, tr, data, SigmaBatch.queries(retailerLr))
    val sigma = tr.span("linreg.assemble")(Sigma.assemble(results, retailerLr))
    tr.count("linreg.sigma_dim", sigma.dim)
    (sigma, tr.span("linreg.bgd")(LinearRegression.trainBgd(sigma, Lambda, Iterations)))
  }

  def sameModel(a: Out, b: Out): Boolean =
    check(a, b).isEmpty && a._2.iterations == b._2.iterations

  override def baseline(data: Data, ref: Ref, tr: Tracer): Option[Seq[String]] = {
    val sigma = tr.span("ref.sharedjoin")(sharedJoin(data))
    Some(check((sigma, ref._2), ref))
  }
}

/** CART over Retailer: one engine batch per tree node, under path filters. */
object CartRetailer extends Workload {
  type Out = DecisionTree.Trained
  type Ref = DecisionTree.Trained
  val name = "cart-retailer"
  val MaxDepth = 1
  val MinLeaf = 10.0

  def generate(spark: SparkSession, seed: Long): Data = Workload.retailer(spark, seed)

  /** `DecisionTree.train`'s recursion over any source of node statistics. */
  def grow(stats: Seq[Predicate] => Map[String, Seq[ValueStats]],
           split: (=> Option[Split]) => Option[Split]): DecisionTree.Trained = {
    val traces = scala.collection.mutable.ArrayBuffer.empty[DecisionTree.NodeTrace]
    def node(pathConds: Seq[Predicate], depth: Int): TreeNode = {
      val st = stats(pathConds)
      val first = st(retailerDt.head.attr)
      val n = first.map(_.count).sum
      val sy = first.map(_.sumY).sum
      val sy2 = first.map(_.sumY2).sum
      if (n <= 0) {
        traces += DecisionTree.NodeTrace(pathConds, 0, 0, None)
        Leaf(0.0)
      } else {
        val nodeVar = SplitFinder.variance(n, sy, sy2)
        val chosen =
          if (depth >= MaxDepth || n < 2 * MinLeaf || nodeVar <= 0) None
          else split(SplitFinder.bestSplit(st, retailerDt, MinLeaf)).filter(_.score < nodeVar)
        traces += DecisionTree.NodeTrace(pathConds, n, nodeVar, chosen)
        chosen match {
          case None => Leaf(sy / n)
          case Some(s) => Inner(s, node(pathConds :+ s.predicate, depth + 1),
            node(pathConds :+ SplitFinder.negate(s.predicate), depth + 1))
        }
      }
    }
    DecisionTree.Trained(node(Nil, 0), traces.toSeq)
  }

  private def valueStats(results: String => Array[Row]): Map[String, Seq[ValueStats]] =
    retailerDt.map { f =>
      f.attr -> results(s"node_${f.attr}").toSeq.map { r =>
        ValueStats(r.getAs[Any](f.attr).toString.toLong, r.getAs[Double](s"cnt_${f.attr}"),
          r.getAs[Double](s"sy_${f.attr}"), r.getAs[Double](s"sy2_${f.attr}"))
      }
    }.toMap

  private def holds(p: Predicate, x: Long): Boolean = p.op match {
    case CmpOp.Le => x <= p.value
    case CmpOp.Lt => x < p.value
    case CmpOp.Ge => x >= p.value
    case CmpOp.Gt => x > p.value
    case CmpOp.Eq => x == p.value
    case CmpOp.Ne => x != p.value
  }

  /** Node statistics summed on the driver from the join's feature tuples. */
  def reference(spark: SparkSession, data: Data): Ref = {
    val tuples = Workload.joinCounts(data, retailerDt.map(_.attr) :+ retailerDtLabel)
    grow(
      conds => {
        val at = tuples.filter { case (t, _) => conds.forall(p => holds(p, t(p.attr))) }
        retailerDt.map { f =>
          f.attr -> at.groupBy(_._1(f.attr)).toSeq.map { case (v, ts) =>
            val ys = ts.map { case (t, cnt) => (cnt, t(retailerDtLabel).toDouble) }
            ValueStats(v, ys.map(_._1).sum, ys.map(c => c._1 * c._2).sum, ys.map(c => c._1 * c._2 * c._2).sum)
          }
        }.toMap
      },
      s => s)
  }

  def app(spark: SparkSession, data: Data): Out =
    DecisionTree.train(data.tree, data.tables, retailerDt, retailerDtLabel, MaxDepth, MinLeaf)

  def check(out: Out, ref: Ref): Seq[String] =
    if (out.nodes.size != ref.nodes.size) Workload.diff("tree nodes", out.nodes.size, ref.nodes.size)
    else out.nodes.zip(ref.nodes).zipWithIndex.flatMap { case ((o, r), i) =>
      Workload.diff(s"node $i path", o.pathConds, r.pathConds) ++
        Workload.diff(s"node $i count", o.count, r.count) ++
        Workload.diff(s"node $i variance", o.variance, r.variance) ++
        Workload.diff(s"node $i split", o.chosen, r.chosen)
    } ++ Workload.diff("tree", out.root, ref.root)

  def replay(spark: SparkSession, data: Data, tr: Tracer): Out =
    grow(
      conds => tr.span("tree.nodestats") {
        tr.count("tree.node_batches", 1)
        val results = Workload.engineBatch(spark, tr, data,
          NodeBatch.queries(retailerDt, retailerDtLabel, conds))
        valueStats(q => results(q).collect())
      },
      s => tr.span("tree.split")(s))

  def sameModel(a: Out, b: Out): Boolean = a == b
}

/** Rk-means over Favorita: a projection batch, 1-d k-means per dimension,
  * then one grid-coreset query over relations augmented with assignments.
  */
object RkMeansFavorita extends Workload {
  /** What the reference pins down: |D|, the per-dimension centroids (which
    * follow from the projections) and the coreset size.
    */
  final case class Summary(datasetSize: Double, perDimCentroids: Map[String, Seq[Double]],
                           coresetSize: Long)

  type Out = RkMeans.Result
  type Ref = Summary
  val name = "rkmeans-favorita"
  val K = 5
  val KPerDim = 5
  /** `RkMeans.run`'s default seed; its 1-d fits use `Seed + dim.hashCode`. */
  val Seed = 42L
  private val dims = favoritaRkDims

  def generate(spark: SparkSession, seed: Long): Data = Workload.favorita(spark, seed)

  private def fit1d(dim: String, projection: Seq[(Long, Double)]): WeightedKMeans.Model =
    WeightedKMeans.fit(projection.map(p => Array(p._1.toDouble)).toArray,
      projection.map(_._2).toArray, KPerDim, seed = Seed + dim.hashCode)

  private def projection(rows: Array[Row], dim: String): Seq[(Long, Double)] =
    rows.map(r => (r.getAs[Any](dim).toString.toLong, r.getAs[Double](s"w_$dim"))).toSeq.sortBy(_._1)

  /** |D|, projections and grid cells from the join's distinct points. */
  def reference(spark: SparkSession, data: Data): Ref = {
    val points = Workload.joinCounts(data, dims)
    val perDim = dims.map { a =>
      a -> fit1d(a, points.groupMapReduce(_._1(a))(_._2)(_ + _).toSeq.sortBy(_._1))
    }.toMap
    val cells = points.map { case (t, _) => dims.map(a => perDim(a).assign(Array(t(a).toDouble))) }.distinct
    Summary(points.map(_._2).sum, perDim.map { case (a, m) => a -> m.centroids.map(_(0)).toSeq },
      cells.size.toLong)
  }

  def app(spark: SparkSession, data: Data): Out =
    RkMeans.run(spark, data.tree, data.tables, dims, k = K, kPerDim = KPerDim, seed = Seed)

  private def summary(out: Out): Summary =
    Summary(out.datasetSize, out.perDimCentroids.map { case (a, c) => a -> c.toSeq }, out.coresetSize)

  def check(out: Out, ref: Ref): Seq[String] = {
    val s = summary(out)
    Workload.diff("|D|", s.datasetSize, ref.datasetSize) ++
      Workload.diff("per-dimension centroids", s.perDimCentroids, ref.perDimCentroids) ++
      Workload.diff("coreset size", s.coresetSize, ref.coresetSize)
  }

  def replay(spark: SparkSession, data: Data, tr: Tracer): Out = {
    val projections = tr.span("rkmeans.proj") {
      val results = Workload.engineBatch(spark, tr, data, RkMeans.projectionQueries(dims))
      dims.map(a => a -> projection(results(s"rk_proj_$a").collect(), a)).toMap
    }
    val perDim = tr.span("rkmeans.kmeans1d")(dims.map(a => a -> fit1d(a, projections(a))).toMap)
    val assignments = dims.map { a =>
      a -> projections(a).map { case (v, _) => v -> perDim(a).assign(Array(v.toDouble)).toLong }.toMap
    }.toMap
    val (gridTree, gridTables) = tr.span("rkmeans.augment")(
      RkMeans.augment(spark, data.tree, data.tables, dims, assignments))
    val gridRows = tr.span("rkmeans.grid")(
      Workload.engineBatch(spark, tr, Data(gridTree, gridTables), Seq(RkMeans.coresetQuery(dims)))("rk_grid")
        .collect())
    tr.count("rkmeans.coreset_size", gridRows.length)
    val points = gridRows.map(r => dims.map(a => perDim(a).centroids(r.getAs[Any](s"c_$a").toString.toInt)(0)).toArray)
    val weights = gridRows.map(_.getAs[Double]("w_grid"))
    val model = tr.span("rkmeans.kmeans")(WeightedKMeans.fit(points, weights, K, seed = Seed))
    RkMeans.Result(model.centroids, dims, gridRows.length.toLong, weights.sum,
      dims.map(a => a -> perDim(a).centroids.map(_(0))).toMap, model.cost)
  }

  def sameModel(a: Out, b: Out): Boolean =
    summary(a) == summary(b) && a.centroids.map(_.toSeq).toSeq == b.centroids.map(_.toSeq).toSeq &&
      a.coresetCost == b.coresetCost
}
