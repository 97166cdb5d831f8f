// The CI regression gate's comparison semantics: every scenario field is a
// deterministic simulation output, so a changed value — string, integer
// counter or float — is fatal; a formatting drift that keeps the value is
// not; grid drift (rows/keys on one side only) and scale mismatches are
// notes, never failures — the gate must not block a PR for legitimately
// evolving the sweep, only for silently changing what the simulation
// computes.
#include <gtest/gtest.h>

#include <string>

#include "exp/compare.h"

namespace stbpu::exp {
namespace {

std::string bench_json(const std::string& scale, const std::string& rows) {
  return "{\n  \"bench\": \"tenant_churn\",\n  \"scale\": \"" + scale +
         "\",\n  \"rows\": [\n    " + rows + "\n  ]\n}\n";
}

const char* kBaseRow =
    "{\"label\": \"STBPU/SKLCond\", \"oae\": 0.9402791164, "
    "\"misp_p99\": 1.5, \"measured_branches\": 6412, \"l1d_misses\": 8174, "
    "\"identical_stats\": \"true\"}";

TEST(CompareBench, IdenticalFilesPass) {
  const std::string text = bench_json("quick", kBaseRow);
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(text, text, {}, report, err)) << err;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notes.empty());
  EXPECT_EQ(report.bench, "tenant_churn");
  EXPECT_EQ(report.compared_fields, 5u);
}

TEST(CompareBench, FloatChangeIsFatal) {
  const std::string old_text = bench_json("quick", kBaseRow);
  const std::string new_text = bench_json(
      "quick",
      "{\"label\": \"STBPU/SKLCond\", \"oae\": 0.9402791165, "
      "\"misp_p99\": 1.8, \"measured_branches\": 6412, \"l1d_misses\": 8174, "
      "\"identical_stats\": \"true\"}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_FALSE(report.ok()) << "a changed float fails the gate";
  ASSERT_EQ(report.regressions.size(), 2u);
  EXPECT_EQ(report.regressions[0].key, "oae");
  EXPECT_EQ(report.regressions[0].old_value, "0.9402791164");
  EXPECT_EQ(report.regressions[0].new_value, "0.9402791165");
  EXPECT_EQ(report.regressions[1].key, "misp_p99");
}

TEST(CompareBench, IntegralDoubleChangeIsFatal) {
  // An integral double is written with a trailing ".0" (scenario.cc's
  // format_double); moving off it is a change like any other.
  const std::string old_text =
      bench_json("quick", "{\"label\": \"r\", \"normalized_ipc\": 1.0}");
  const std::string new_text =
      bench_json("quick", "{\"label\": \"r\", \"normalized_ipc\": 0.5}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].key, "normalized_ipc");
}

TEST(CompareBench, CounterChangeIsFatal) {
  const std::string old_text = bench_json("quick", kBaseRow);
  const std::string new_text = bench_json(
      "quick",
      "{\"label\": \"STBPU/SKLCond\", \"oae\": 0.9402791164, "
      "\"misp_p99\": 1.5, \"measured_branches\": 6413, \"l1d_misses\": 8170, "
      "\"identical_stats\": \"true\"}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 2u);
  EXPECT_EQ(report.regressions[0].key, "measured_branches");
  EXPECT_EQ(report.regressions[1].key, "l1d_misses");
}

TEST(CompareBench, StringChangeIsFatal) {
  const std::string old_text = bench_json("quick", kBaseRow);
  const std::string new_text = bench_json(
      "quick",
      "{\"label\": \"STBPU/SKLCond\", \"oae\": 0.9402791164, "
      "\"misp_p99\": 1.5, \"measured_branches\": 6412, \"l1d_misses\": 8174, "
      "\"identical_stats\": \"false\"}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].key, "identical_stats");
  EXPECT_EQ(report.regressions[0].row, "STBPU/SKLCond");
}

TEST(CompareBench, IgnoreListSuppressesFatal) {
  const std::string old_text = bench_json("quick", kBaseRow);
  const std::string new_text = bench_json(
      "quick",
      "{\"label\": \"STBPU/SKLCond\", \"oae\": 0.9402791164, "
      "\"misp_p99\": 1.5, \"measured_branches\": 9999, \"l1d_misses\": 8174, "
      "\"identical_stats\": \"true\"}");
  CompareOptions opt;
  opt.ignore_keys = {"measured_branches"};
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, opt, report, err)) << err;
  EXPECT_TRUE(report.ok());
}

TEST(CompareBench, CounterTypeChangeCannotSmuggleAValueChange) {
  // A counter that starts rendering as a float (writer bug, accidental
  // .set(key, double)) must not hide a value change behind the type
  // change: a changed value is fatal whichever side carries the integer
  // literal.
  const std::string old_text =
      bench_json("quick", "{\"label\": \"r\", \"measured_branches\": 6412}");
  const std::string new_text =
      bench_json("quick", "{\"label\": \"r\", \"measured_branches\": 6413.0}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].key, "measured_branches");
}

TEST(CompareBench, ValuePreservingFormatDriftPasses) {
  // "1" vs "1.0" (an older artifact's integral double vs the current
  // writer's ".0" form), or a float spelled differently with the same
  // value, is formatting drift, not a regression.
  const std::string old_text = bench_json(
      "quick", "{\"label\": \"r\", \"speedup\": 1, \"n\": 6412, \"x\": 0.25}");
  const std::string new_text = bench_json(
      "quick", "{\"label\": \"r\", \"speedup\": 1.0, \"n\": 6412.0, \"x\": 2.5e-1}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared_fields, 3u);
}

TEST(CompareBench, GridDriftIsAdvisory) {
  const std::string old_text = bench_json(
      "quick", std::string(kBaseRow) + ",\n    {\"label\": \"gone\", \"x\": 1}");
  const std::string new_text = bench_json(
      "quick", std::string(kBaseRow) +
                   ",\n    {\"label\": \"fresh\", \"measured_branches\": 1}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("fresh"), std::string::npos);
  EXPECT_NE(report.notes[1].find("gone"), std::string::npos);
}

TEST(CompareBench, NewKeysAreAdvisory) {
  const std::string old_text = bench_json(
      "quick", "{\"label\": \"r\", \"measured_branches\": 5}");
  const std::string new_text = bench_json(
      "quick", "{\"label\": \"r\", \"measured_branches\": 5, \"l1d_hits\": 9}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("l1d_hits"), std::string::npos);
}

TEST(CompareBench, ScaleMismatchComparesNothing) {
  const std::string old_text = bench_json("quick", kBaseRow);
  const std::string new_text = bench_json(
      "paper",
      "{\"label\": \"STBPU/SKLCond\", \"measured_branches\": 999999}");
  CompareReport report;
  std::string err;
  ASSERT_TRUE(compare_bench(old_text, new_text, {}, report, err)) << err;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared_fields, 0u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("scale mismatch"), std::string::npos);
}

TEST(CompareBench, ScenarioMismatchIsAnError) {
  const std::string old_text = bench_json("quick", kBaseRow);
  std::string other = old_text;
  const auto at = other.find("tenant_churn");
  other.replace(at, std::string("tenant_churn").size(), "fig4_single");
  CompareReport report;
  std::string err;
  EXPECT_FALSE(compare_bench(old_text, other, {}, report, err));
  EXPECT_NE(err.find("mismatch"), std::string::npos);
}

TEST(CompareBench, MalformedInputIsAnError) {
  CompareReport report;
  std::string err;
  EXPECT_FALSE(compare_bench("{not json", bench_json("quick", kBaseRow), {}, report, err));
  EXPECT_FALSE(compare_bench(bench_json("quick", kBaseRow), "[]", {}, report, err));
  EXPECT_FALSE(compare_bench("{}", bench_json("quick", kBaseRow), {}, report, err));
}

}  // namespace
}  // namespace stbpu::exp
