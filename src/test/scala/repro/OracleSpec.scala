package repro

import org.apache.spark.sql.functions._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig

/** Sanity checks of the DuckDB oracle machinery itself, so oracle-based
  * assertions elsewhere are trustworthy: a correct query must pass, a wrong
  * one must fail. The table is a few simulated devices' raw positioning
  * records. */
class OracleSpec extends SparkSpec {

  private lazy val pos =
    SynthIndoor.raw(spark, Mall.dsm(), SimConfig(nDevices = 4, seed = 5L)).toDF().cache()

  test("a correct aggregation passes the oracle") {
    val q = pos.groupBy("deviceId")
      .agg(count(lit(1)).as("n"), round(sum("x"), 2).as("sx"))
    Oracle.assertEquivalent(q,
      """SELECT deviceId, count(*) AS n,
        |       round(sum(CAST(x AS DOUBLE)), 2) AS sx
        |FROM pos GROUP BY deviceId""".stripMargin,
      "pos" -> pos)
  }

  test("a wrong result is rejected with a row diff") {
    val q = pos.groupBy("deviceId").agg((count(lit(1)) + 1).as("n"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(q,
        "SELECT deviceId, count(*) AS n FROM pos GROUP BY deviceId",
        "pos" -> pos)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("a column-name mismatch is rejected up front") {
    val q = pos.groupBy("deviceId").agg(count(lit(1)).as("wrong_name"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(q,
        "SELECT deviceId, count(*) AS n FROM pos GROUP BY deviceId",
        "pos" -> pos)
    }
    assert(e.getMessage.contains("column mismatch"))
  }
}
