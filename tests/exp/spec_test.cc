// Experiment-spec and registry coverage: JSON (de)serialization round
// trips, strict rejection of malformed specs/flags, shard/point parsing,
// and the built-in scenario set the driver exposes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/driver.h"
#include "exp/json.h"
#include "exp/scenario.h"
#include "exp/spec.h"

namespace stbpu::exp {
namespace {

TEST(Scale, NamedPresets) {
  const auto quick = Scale::named("quick");
  ASSERT_TRUE(quick.has_value());
  EXPECT_FALSE(quick->paper);
  EXPECT_EQ(quick->trace_branches, 400'000u);

  const auto paper = Scale::named("paper");
  ASSERT_TRUE(paper.has_value());
  EXPECT_TRUE(paper->paper);
  EXPECT_EQ(paper->ooo_instructions, 100'000'000u);

  EXPECT_FALSE(Scale::named("huge").has_value());
  EXPECT_FALSE(Scale::named("").has_value());
}

TEST(ExperimentSpec, JsonRoundTrip) {
  ExperimentSpec spec;
  spec.scenario = "fig5_smt";
  spec.scale = *Scale::named("paper");
  spec.scale.ooo_instructions = 12345;  // explicit override survives
  spec.jobs = 4;
  spec.shard_index = 1;
  spec.shard_count = 3;
  spec.points = {2, 5, 9};
  spec.trace_file = "/tmp/trace.bin";
  spec.seed = 77;
  spec.monitor.difficulty_r = 0.0625;
  spec.monitor.misprediction_threshold = 1000;
  spec.monitor.eviction_threshold = 500;
  spec.monitor.tagged_misprediction_threshold = 250;
  spec.arms = {"STBPU", "CIBPU"};

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(spec.to_json(), doc, err)) << err;
  ExperimentSpec back;
  ASSERT_TRUE(ExperimentSpec::from_json(doc, back, err)) << err;
  EXPECT_EQ(spec, back);
}

TEST(ExperimentSpec, ShardFieldsCanBeOmitted) {
  ExperimentSpec spec;
  spec.scenario = "fig3_oae";
  spec.shard_index = 1;
  spec.shard_count = 2;
  // The merged-output serialization drops shard state so it compares equal
  // to an unsharded run's.
  EXPECT_EQ(spec.to_json(false).find("shard"), std::string::npos);
  EXPECT_NE(spec.to_json(true).find("shard"), std::string::npos);
}

TEST(ExperimentSpec, RejectsUnknownFieldsAndBadScale) {
  JsonValue doc;
  std::string err;
  ExperimentSpec out;

  ASSERT_TRUE(json_parse(R"({"scenario": "x", "typo_field": 1})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("typo_field"), std::string::npos);

  ASSERT_TRUE(json_parse(R"({"scenario": "x", "scale": {"name": "huge"}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("huge"), std::string::npos);

  ASSERT_TRUE(json_parse(R"({"scale": {"name": "quick"}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));  // missing scenario
}

TEST(ExperimentSpec, ArmsValidateAgainstRegisteredModelKinds) {
  JsonValue doc;
  std::string err;
  ExperimentSpec out;

  // Valid arm names round-trip; emission is skipped when empty.
  ASSERT_TRUE(json_parse(R"({"scenario": "attack_matrix",
                             "arms": ["XOR_isolation", "unprotected"]})",
                         doc, err));
  ASSERT_TRUE(ExperimentSpec::from_json(doc, out, err)) << err;
  EXPECT_EQ(out.arms, (std::vector<std::string>{"XOR_isolation", "unprotected"}));
  ExperimentSpec empty;
  empty.scenario = "x";
  EXPECT_EQ(empty.to_json().find("arms"), std::string::npos);

  // Unknown arm: the error names the offender and where it sits.
  ASSERT_TRUE(json_parse(R"({"scenario": "attack_matrix", "arms": ["CIBPV"]})", doc,
                         err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("'CIBPV'"), std::string::npos) << err;
  EXPECT_NE(err.find("arms"), std::string::npos) << err;

  // Non-string entries are malformed.
  ASSERT_TRUE(json_parse(R"({"scenario": "attack_matrix", "arms": [7]})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
}

TEST(ExperimentSpec, ShardSelection) {
  ExperimentSpec spec;
  spec.scenario = "x";
  spec.points = {0, 1, 4, 7};
  EXPECT_TRUE(spec.selected(1));
  EXPECT_FALSE(spec.selected(2));

  // Unsharded: the whole selection.
  EXPECT_EQ(spec.owned_points(10), (std::vector<std::size_t>{0, 1, 4, 7}));

  // Shards stripe the *selection* by ordinal, so an even-only selection
  // still splits across both shards.
  spec.points = {0, 2, 4, 6};
  spec.shard_count = 2;
  spec.shard_index = 0;
  EXPECT_EQ(spec.owned_points(10), (std::vector<std::size_t>{0, 4}));
  spec.shard_index = 1;
  EXPECT_EQ(spec.owned_points(10), (std::vector<std::size_t>{2, 6}));

  // No selection: shards stripe the grid.
  spec.points.clear();
  EXPECT_EQ(spec.owned_points(5), (std::vector<std::size_t>{1, 3}));
}

TEST(ParseShard, AcceptsWellFormedRejectsRest) {
  std::uint32_t index = 9, count = 9;
  std::string err;
  ASSERT_TRUE(parse_shard("0/2", index, count, err));
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(count, 2u);
  ASSERT_TRUE(parse_shard("7/8", index, count, err));
  EXPECT_EQ(index, 7u);

  EXPECT_FALSE(parse_shard("2/2", index, count, err));  // index out of range
  EXPECT_FALSE(parse_shard("1", index, count, err));
  EXPECT_FALSE(parse_shard("a/b", index, count, err));
  EXPECT_FALSE(parse_shard("1/0", index, count, err));
  EXPECT_FALSE(parse_shard("/2", index, count, err));
}

TEST(ParsePoints, ListsAndRanges) {
  std::vector<std::size_t> points;
  std::string err;
  ASSERT_TRUE(parse_points("0,3,7-9,3", points, err));
  EXPECT_EQ(points, (std::vector<std::size_t>{0, 3, 7, 8, 9}));

  EXPECT_FALSE(parse_points("", points, err));
  EXPECT_FALSE(parse_points("1,x", points, err));
  EXPECT_FALSE(parse_points("9-7", points, err));

  // Absurd ranges are hard errors, not OOMs/hangs (including the maximal
  // range whose inclusive loop would wrap).
  EXPECT_FALSE(parse_points("0-4000000000", points, err));
  EXPECT_FALSE(parse_points("0-18446744073709551615", points, err));
  EXPECT_NE(err.find("too large"), std::string::npos) << err;
}

TEST(ExperimentSpec, RejectsNegativeNumericFields) {
  JsonValue doc;
  std::string err;
  ExperimentSpec out;
  ASSERT_TRUE(json_parse(R"({"scenario": "x", "seed": -1})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  ASSERT_TRUE(json_parse(
      R"({"scenario": "x", "scale": {"name": "quick", "trace_branches": -5}})", doc,
      err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("non-negative"), std::string::npos) << err;
}

TEST(ExperimentSpec, MonitorOverridesRoundTripAndDefaultsAreOmitted) {
  ExperimentSpec spec;
  spec.scenario = "fig6_rsweep";
  // Unset monitor overrides must not appear in the serialization (older
  // spec files stay byte-stable).
  EXPECT_EQ(spec.to_json().find("monitor"), std::string::npos);

  spec.monitor.difficulty_r = 0.05;
  spec.monitor.eviction_threshold = 26'500;
  const std::string text = spec.to_json();
  EXPECT_NE(text.find("\"monitor\""), std::string::npos);
  EXPECT_NE(text.find("difficulty_r"), std::string::npos);
  EXPECT_EQ(text.find("misprediction_threshold"), std::string::npos)
      << "unset fields inside the monitor object are omitted too";

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(text, doc, err)) << err;
  ExperimentSpec back;
  ASSERT_TRUE(ExperimentSpec::from_json(doc, back, err)) << err;
  EXPECT_EQ(spec, back);
}

TEST(ExperimentSpec, RejectsMalformedMonitorOverrides) {
  JsonValue doc;
  std::string err;
  ExperimentSpec out;

  ASSERT_TRUE(json_parse(
      R"({"scenario": "x", "monitor": {"typo_threshold": 5}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("typo_threshold"), std::string::npos) << err;

  ASSERT_TRUE(json_parse(
      R"({"scenario": "x", "monitor": {"difficulty_r": -0.5}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
  EXPECT_NE(err.find("positive"), std::string::npos) << err;

  ASSERT_TRUE(json_parse(
      R"({"scenario": "x", "monitor": {"difficulty_r": 0}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err))
      << "zero means unset and may not be written explicitly";

  ASSERT_TRUE(json_parse(
      R"({"scenario": "x", "monitor": {"misprediction_threshold": -3}})", doc, err));
  EXPECT_FALSE(ExperimentSpec::from_json(doc, out, err));
}

TEST(Registry, BuiltinScenarios) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  const char* expected[] = {"fig2_remapgen",  "fig3_oae",        "fig4_single",
                            "fig5_smt",       "fig6_rsweep",     "ablation",
                            "sec6_empirical", "sec6_thresholds", "table1_attack_surface",
                            "tenant_churn",   "attack_matrix"};
  EXPECT_EQ(all_scenarios().size(), 11u);
  for (const char* name : expected) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(find_scenario("nope"), nullptr);
  // The wall-clock micro-benchmarks live in perfbench/, not here.
  for (const char* gone : {"table2_remap_functions", "ooo_engine", "mix_batch"}) {
    EXPECT_EQ(find_scenario(gone), nullptr) << gone;
  }
}

TEST(Registry, GridShapes) {
  register_builtin_scenarios();
  ExperimentSpec spec;
  spec.scenario = "fig5_smt";
  // 31 SMT pairs × 4 direction predictors.
  EXPECT_EQ(find_scenario("fig5_smt")->point_labels(spec).size(), 124u);
  // 18 workloads × 4 predictors.
  EXPECT_EQ(find_scenario("fig4_single")->point_labels(spec).size(), 72u);
  // A quick-scale fig6: 4 base pairs + 3 defense arms × 6 r values × 4 pairs.
  EXPECT_EQ(find_scenario("fig6_rsweep")->point_labels(spec).size(), 76u);
  // tenant_churn: 1 / 1K / 32K / 1M / 1M-under-eviction-pressure.
  EXPECT_EQ(find_scenario("tenant_churn")->point_labels(spec).size(), 5u);
  // attack_matrix: 4 attacks × 4 arms, shrinking under the arms filter.
  EXPECT_EQ(find_scenario("attack_matrix")->point_labels(spec).size(), 16u);
  spec.arms = {"STBPU"};
  EXPECT_EQ(find_scenario("attack_matrix")->point_labels(spec).size(), 4u);
}

TEST(Json, ParsesAndRejects) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"a": [1, 2.5e3, "x\n"], "b": {"c": true}})", v, err));
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  std::uint64_t first = 0;
  EXPECT_TRUE(a->items()[0].as_uint(~std::uint64_t{0}, first));
  EXPECT_EQ(first, 1u);
  EXPECT_FALSE(a->items()[1].as_uint(~std::uint64_t{0}, first)) << "2.5e3 is not an integer";
  EXPECT_FALSE(a->items()[2].as_uint(~std::uint64_t{0}, first)) << "strings are not numbers";
  EXPECT_DOUBLE_EQ(a->items()[1].as_double(), 2500.0);
  EXPECT_EQ(a->items()[2].text(), "x\n");
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());

  EXPECT_FALSE(json_parse("{", v, err));
  EXPECT_FALSE(json_parse("[1,]", v, err));
  EXPECT_FALSE(json_parse("{\"a\" 1}", v, err));
  EXPECT_FALSE(json_parse("12 34", v, err));
}

TEST(Json, DeepNestingIsAParseErrorNotACrash) {
  // Hostile/corrupt shard or spec files must fail gracefully, not blow the
  // stack.
  const std::string deep(200'000, '[');
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(deep, v, err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

  // Moderate nesting still parses.
  std::string ok;
  for (int i = 0; i < 40; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 40; ++i) ok += ']';
  EXPECT_TRUE(json_parse(ok, v, err)) << err;
}

TEST(Json, RepeatedObjectKeyIsAParseError) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(R"({"a": 1, "b": 2, "a": 3})", v, err));
  EXPECT_NE(err.find("repeated object key 'a' at offset 17"), std::string::npos) << err;
  // Nested objects are checked too; the same key in sibling objects is fine.
  EXPECT_FALSE(json_parse(R"([{"x": {"k": 1, "k": 1}}])", v, err));
  EXPECT_NE(err.find("'k'"), std::string::npos) << err;
  EXPECT_TRUE(json_parse(R"([{"k": 1}, {"k": 2}, {"a": {"k": 3}, "k": 4}])", v, err)) << err;
}

TEST(Json, QuoteRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(json_quote(nasty), v, err)) << err;
  EXPECT_EQ(v.text(), nasty);
}

/// from_json over `text`; the error text lands in `err`.
bool spec_from(const std::string& text, ExperimentSpec& out, std::string& err) {
  JsonValue doc;
  if (!json_parse(text, doc, err)) {
    ADD_FAILURE() << "fixture is not JSON: " << err;
    return false;
  }
  return ExperimentSpec::from_json(doc, out, err);
}

TEST(ParseUint, RangeCheckedDigitsOnly) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_uint("0", 0, v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_uint("18446744073709551615", ~std::uint64_t{0}, v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  EXPECT_TRUE(parse_uint("4294967295", 4294967295u, v));
  EXPECT_EQ(v, 4294967295u);

  v = 7;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.5", "1e3", "0x10", "abc"}) {
    EXPECT_FALSE(parse_uint(bad, ~std::uint64_t{0}, v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_uint("18446744073709551616", ~std::uint64_t{0}, v));  // 2^64
  EXPECT_FALSE(parse_uint("99999999999999999999999", ~std::uint64_t{0}, v));
  EXPECT_FALSE(parse_uint("4294967296", 4294967295u, v));
  EXPECT_FALSE(parse_uint("5", 4, v));
  EXPECT_FALSE(parse_uint("1", 0, v));
  EXPECT_EQ(v, 7u) << "a rejected parse leaves the output untouched";
}

TEST(ExperimentSpec, NumericFieldsAreNeverReinterpreted) {
  ExperimentSpec out;
  std::string err;
  // Each case: spec text and the field its error must name.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"scenario": "x", "points": [1.5]})", "points"},
      {R"({"scenario": "x", "points": [-1]})", "points"},
      {R"({"scenario": "x", "points": ["1"]})", "points"},
      {R"({"scenario": "x", "jobs": 4294967297})", "jobs"},
      {R"({"scenario": "x", "jobs": 4294967296})", "jobs"},
      {R"({"scenario": "x", "shard": {"index": 4294967296, "count": 4294967297}})",
       "shard.index"},
      {R"({"scenario": "x", "shard": {"index": 0, "count": 4294967296}})", "shard.count"},
      {R"({"scenario": "x", "seed": 99999999999999999999999})", "seed"},
      {R"({"scenario": "x", "seed": 18446744073709551616})", "seed"},
      {R"({"scenario": "x", "scale": {"trace_branches": 1e6}})", "trace_branches"},
      {R"({"scenario": "x", "monitor": {"eviction_threshold": 1.0}})",
       "monitor.eviction_threshold"},
  };
  for (const auto& [text, field] : cases) {
    EXPECT_FALSE(spec_from(text, out, err)) << text;
    EXPECT_NE(err.find(field), std::string::npos) << text << " -> " << err;
  }

  // The largest value of each width is still accepted.
  ASSERT_TRUE(spec_from(R"({"scenario": "x", "jobs": 4294967295, "seed": 18446744073709551615,
                            "shard": {"index": 4294967294, "count": 4294967295},
                            "points": [18446744073709551615]})",
                        out, err))
      << err;
  EXPECT_EQ(out.jobs, 4294967295u);
  EXPECT_EQ(out.seed, ~std::uint64_t{0});
  EXPECT_EQ(out.shard_index, 4294967294u);
  EXPECT_EQ(out.shard_count, 4294967295u);
  EXPECT_EQ(out.points, (std::vector<std::size_t>{~std::size_t{0}}));
}

TEST(ExperimentSpec, RepeatedKeysAreRejected) {
  // json_parse itself rejects a repeated key, at any depth, naming it.
  const auto spec_from = [](const std::string& text, ExperimentSpec& out,
                            std::string& err) {
    JsonValue doc;
    return json_parse(text, doc, err) && ExperimentSpec::from_json(doc, out, err);
  };
  ExperimentSpec out;
  std::string err;
  EXPECT_FALSE(spec_from(R"({"scenario": "x", "points": [1], "points": [2], "jobs": 1,
                             "jobs": 3})",
                         out, err));
  EXPECT_NE(err.find("'points'"), std::string::npos) << err;
  EXPECT_FALSE(spec_from(R"({"scenario": "x", "scenario": "y"})", out, err));
  EXPECT_NE(err.find("'scenario'"), std::string::npos) << err;
  // Nested objects too: a repeated key in a nested object is an error.
  EXPECT_FALSE(spec_from(
      R"({"scenario": "x", "scale": {"trace_branches": 5, "trace_branches": 6}})", out,
      err));
  EXPECT_NE(err.find("'trace_branches'"), std::string::npos) << err;
  EXPECT_FALSE(spec_from(R"({"scenario": "x", "shard": {"index": 0, "count": 2,
                             "count": 3}})",
                         out, err));
  EXPECT_NE(err.find("'count'"), std::string::npos) << err;
  EXPECT_FALSE(spec_from(
      R"({"scenario": "x", "monitor": {"eviction_threshold": 5, "eviction_threshold": 6}})",
      out, err));
  EXPECT_NE(err.find("'eviction_threshold'"), std::string::npos) << err;
}

TEST(ParseShard, RejectsValuesBeyond32Bits) {
  std::uint32_t index = 9, count = 9;
  std::string err;
  EXPECT_FALSE(parse_shard("4294967296/4294967297", index, count, err));
  EXPECT_FALSE(parse_shard("0/4294967296", index, count, err));
  EXPECT_FALSE(parse_shard("-1/2", index, count, err));
  EXPECT_FALSE(parse_shard("0/+2", index, count, err));
  EXPECT_FALSE(parse_shard(" 0/2", index, count, err));
  ASSERT_TRUE(parse_shard("4294967294/4294967295", index, count, err)) << err;
  EXPECT_EQ(index, 4294967294u);
  EXPECT_EQ(count, 4294967295u);
}

TEST(ParsePoints, RejectsSignsAndStrayText) {
  std::vector<std::size_t> points;
  std::string err;
  for (const char* bad : {"-1", "+1", " 1", "1,", ",1", "1-", "1--3", "1-+3", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_points(bad, points, err)) << "'" << bad << "'";
  }
}

/// `stbpu_bench describe fig4_single <flag>`'s exit code: describe parses
/// the run flags exactly as `run` does but executes nothing.
int describe_with(const char* flag) {
  std::string a0 = "stbpu_bench", a1 = "describe", a2 = "fig4_single", a3 = flag;
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data()};
  return driver_main(4, argv);
}

TEST(DriverFlags, NumericFlagsAreNeverReinterpreted) {
  for (const char* bad :
       {"--jobs=4294967297", "--jobs=-1", "--jobs=1.5", "--seed=99999999999999999999999",
        "--seed=18446744073709551616", "--trace-branches=-1",
        "--trace-branches=18446744073709551616", "--shard=4294967296/4294967297",
        "--shard=0/4294967296", "--points=-1", "--gamma-m=+5"}) {
    EXPECT_EQ(describe_with(bad), 2) << bad;
  }
  EXPECT_EQ(describe_with("--jobs=4294967295"), 0);
  EXPECT_EQ(describe_with("--seed=18446744073709551615"), 0);
  EXPECT_EQ(describe_with("--shard=71/72"), 0);
}

}  // namespace
}  // namespace stbpu::exp
