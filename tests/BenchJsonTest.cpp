//===- tests/BenchJsonTest.cpp - BENCH_*.json schema validation -----------===//
///
/// \file
/// Every bench binary writes a BENCH_<name>.json via BenchReport; CI
/// archives and diffs those files, so their shape is load-bearing. These
/// tests pin the jitvs-bench-v1 schema: required top-level keys, row and
/// metric shapes, string escaping, $JITVS_BENCH_OUT routing, and the
/// engineMetrics attachment when the metrics layer is live.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

using namespace jitvs;
using namespace jitvs::bench;

namespace {

std::unique_ptr<json::Value> emit(const BenchReport &Report) {
  std::ostringstream SS;
  Report.writeJson(SS);
  std::string Err;
  auto Doc = json::parse(SS.str(), &Err);
  EXPECT_TRUE(Doc) << Err << "\nin: " << SS.str();
  return Doc;
}

TEST(BenchJsonTest, MinimalReportHasAllSchemaKeys) {
  BenchReport Report("unit_test", 3);
  auto Doc = emit(Report);
  ASSERT_TRUE(Doc && Doc->isObject());

  ASSERT_TRUE(Doc->get("schema"));
  EXPECT_EQ(Doc->get("schema")->Str, BenchReport::Schema);
  EXPECT_EQ(Doc->get("schema")->Str, "jitvs-bench-v1");
  ASSERT_TRUE(Doc->get("bench"));
  EXPECT_EQ(Doc->get("bench")->Str, "unit_test");
  ASSERT_TRUE(Doc->get("reps"));
  EXPECT_DOUBLE_EQ(Doc->get("reps")->Num, 3.0);
  // Empty collections still serialize (diff tooling need not branch).
  ASSERT_TRUE(Doc->get("meta") && Doc->get("meta")->isObject());
  ASSERT_TRUE(Doc->get("rows") && Doc->get("rows")->isArray());
  EXPECT_TRUE(Doc->get("rows")->Arr.empty());
  ASSERT_TRUE(Doc->get("metrics") && Doc->get("metrics")->isObject());
}

TEST(BenchJsonTest, RowsMetaAndMetricsRoundTrip) {
  BenchReport Report("unit_test", 5);
  Report.setMeta("policy", "paper \"quoted\"");
  std::vector<double> Samples = {0.001, 0.002, 0.0015};
  Report.addRow("3d-cube", "ALL", 0.0015, "seconds", &Samples);
  Report.addRow("3d-cube", "interp", 0.01, "seconds");
  Report.addRow("crypto-md5", "ALL", 1234, "instructions");
  Report.addMetric("geomean_speedup_pct", 42.5);

  auto Doc = emit(Report);
  ASSERT_TRUE(Doc);

  EXPECT_EQ(Doc->get("meta")->get("policy")->Str, "paper \"quoted\"");

  const json::Value *Rows = Doc->get("rows");
  ASSERT_EQ(Rows->Arr.size(), 3u);
  const json::Value &R0 = Rows->Arr[0];
  EXPECT_EQ(R0.get("workload")->Str, "3d-cube");
  EXPECT_EQ(R0.get("config")->Str, "ALL");
  EXPECT_DOUBLE_EQ(R0.get("value")->Num, 0.0015);
  EXPECT_EQ(R0.get("unit")->Str, "seconds");
  ASSERT_TRUE(R0.get("samples") && R0.get("samples")->isArray());
  ASSERT_EQ(R0.get("samples")->Arr.size(), 3u);
  EXPECT_DOUBLE_EQ(R0.get("samples")->Arr[1].Num, 0.002);
  // Rows without samples omit the key rather than writing [].
  EXPECT_EQ(Rows->Arr[1].get("samples"), nullptr);

  EXPECT_DOUBLE_EQ(Doc->get("metrics")->get("geomean_speedup_pct")->Num,
                   42.5);
}

TEST(BenchJsonTest, EngineMetricsAttachedOnlyWhenEnabled) {
  metrics().enable(false);
  metrics().reset();
  BenchReport Report("unit_test", 1);
  auto Doc = emit(Report);
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->get("engineMetrics"), nullptr);

  metrics().enable();
  metrics().addCounter("engine.compilations", 2);
  auto Doc2 = emit(Report);
  metrics().enable(false);
  metrics().reset();
  ASSERT_TRUE(Doc2);
  const json::Value *EM = Doc2->get("engineMetrics");
  ASSERT_TRUE(EM && EM->isObject());
  EXPECT_EQ(EM->get("schema")->Str, Metrics::JsonSchema);
  EXPECT_DOUBLE_EQ(EM->get("counters")->get("engine.compilations")->Num,
                   2.0);
}

TEST(BenchJsonTest, WriteRespectsBenchOutDir) {
  std::string Dir = ::testing::TempDir(); // Ends with '/'.
  ASSERT_EQ(setenv("JITVS_BENCH_OUT", Dir.c_str(), 1), 0);
  BenchReport Report("out_dir_test", 1);
  Report.addRow("w", "c", 1.5, "seconds");
  EXPECT_TRUE(Report.write());
  unsetenv("JITVS_BENCH_OUT");

  std::string Path = Dir + "/BENCH_out_dir_test.json";
  std::string Err;
  auto Doc = json::parseFile(Path, &Err);
  ASSERT_TRUE(Doc) << Err;
  EXPECT_EQ(Doc->get("bench")->Str, "out_dir_test");
  std::remove(Path.c_str());
}

} // namespace
