package repro.bench

import repro.SparkSpec
import repro.exp.{T2BatchRuntime, Workloads}

/** Bench for Table T2: LR aggregate-batch runtime, LMFAO vs baselines. */
class T2BatchRuntimeBench extends SparkSpec {

  test("T2: aggregate batch runtime LMFAO vs SharedJoin vs PerQuery") {
    val sf = Workloads.benchSf
    val table = T2BatchRuntime.run(spark, sf)
    println(table.render)
    assert(table.rows.size == 8) // 2 datasets x 4 methods
    assert(table.rows.forall(_.apply(3).toDouble > 0))
  }
}
