// Shard determinism: a sweep executed as --shard=0/2 + --shard=1/2 and
// merged must reproduce the unsharded BENCH_*.json byte for byte — no
// dropped points, no duplicates, no float drift through the shard files
// (this is the acceptance contract of the sharded driver).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec.h"

namespace stbpu::exp {
namespace {

/// Tiny OoO budgets so the 124-point fig5 grid stays unit-test cheap while
/// still exercising real simulation (nonzero doubles in every field).
ExperimentSpec tiny_fig5_spec() {
  ExperimentSpec spec;
  spec.scenario = "fig5_smt";
  spec.scale.ooo_instructions = 1'500;
  spec.scale.ooo_warmup = 150;
  spec.points = {0, 1, 2, 3, 4, 5, 6, 7};  // two pairs × four predictors
  return spec;
}

TEST(ShardMerge, Fig5ShardedMergeIsBitIdenticalToUnsharded) {
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("fig5_smt");
  ASSERT_NE(scenario, nullptr);

  // Unsharded reference run.
  ExperimentSpec spec = tiny_fig5_spec();
  RunOutcome unsharded;
  std::string err;
  ASSERT_TRUE(run_experiment(*scenario, spec, unsharded, err)) << err;
  ASSERT_EQ(unsharded.ran.size(), 8u);
  const std::string reference = final_json(*scenario, spec, unsharded.points);

  // The same sweep as two shards.
  std::vector<std::string> shard_texts;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    ExperimentSpec shard_spec = tiny_fig5_spec();
    shard_spec.shard_index = shard;
    shard_spec.shard_count = 2;
    RunOutcome outcome;
    ASSERT_TRUE(run_experiment(*scenario, shard_spec, outcome, err)) << err;
    EXPECT_EQ(outcome.ran.size(), 4u);
    shard_texts.push_back(shard_json(*scenario, shard_spec, outcome));
  }

  std::string merged, merged_scenario;
  ASSERT_TRUE(merge_shards(shard_texts, merged, merged_scenario, err)) << err;
  EXPECT_EQ(merged_scenario, "fig5_smt");
  EXPECT_EQ(merged, reference);

  // The trajectory is complete: every selected point's row plus the
  // per-predictor AVERAGE rows.
  for (const char* label :
       {"bwaves_fotonik3d/PerceptronBP", "bwaves_cactuBSSN/TAGE_SC_L_8KB",
        "AVERAGE/SKLCond"}) {
    EXPECT_NE(merged.find(std::string("\"label\": \"") + label + "\""),
              std::string::npos)
        << label;
  }
  EXPECT_NE(merged.find("\"normalized_ipc_harmonic\":"), std::string::npos);
}

/// Flip one digit of the first double payload in a shard text: a
/// duplicate-but-DIFFERENT result for the same points, as a buggy or
/// malicious worker would produce.
std::string tamper_first_double(std::string text) {
  const std::size_t tag = text.find("\"d\", ");
  EXPECT_NE(tag, std::string::npos);
  std::size_t pos = tag + 5;
  if (pos < text.size() && text[pos] == '-') ++pos;
  EXPECT_TRUE(pos < text.size() && text[pos] >= '0' && text[pos] <= '9');
  text[pos] = text[pos] == '9' ? '8' : '9';
  return text;
}

TEST(ShardMerge, DetectsMissingPointsAndMismatchedSpecs) {
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("fig5_smt");
  ASSERT_NE(scenario, nullptr);

  ExperimentSpec shard0 = tiny_fig5_spec();
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  RunOutcome outcome;
  std::string err;
  ASSERT_TRUE(run_experiment(*scenario, shard0, outcome, err)) << err;
  const std::string shard0_text = shard_json(*scenario, shard0, outcome);

  std::string merged, merged_scenario;
  // One missing shard: the even-point shard alone cannot cover the grid.
  EXPECT_FALSE(merge_shards({shard0_text}, merged, merged_scenario, err));
  EXPECT_NE(err.find("missing"), std::string::npos) << err;

  // Shards from different sweeps must not merge, and the error must name
  // the offending input and the byte offset of the mismatching value.
  ExperimentSpec other = tiny_fig5_spec();
  other.shard_index = 1;
  other.shard_count = 2;
  other.scale.ooo_instructions = 999;  // different budget = different sweep
  RunOutcome other_outcome;
  ASSERT_TRUE(run_experiment(*scenario, other, other_outcome, err)) << err;
  const std::string other_text = shard_json(*scenario, other, other_outcome);
  EXPECT_FALSE(merge_shards({shard0_text, other_text}, {"a.json", "b.json"}, merged,
                            merged_scenario, err));
  EXPECT_NE(err.find("spec differs"), std::string::npos) << err;
  EXPECT_NE(err.find("b.json"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST(ShardMerge, DuplicateIdenticalAcceptedDuplicateDifferentRejected) {
  // Straggler re-dispatch legitimately yields the same shard twice with
  // identical payloads — merge must union them silently. The same points
  // with a DIFFERENT payload is a correctness hazard and must be rejected
  // with the offending file named.
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("fig5_smt");
  ASSERT_NE(scenario, nullptr);

  std::string err;
  std::vector<std::string> shard_texts;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    ExperimentSpec shard_spec = tiny_fig5_spec();
    shard_spec.shard_index = shard;
    shard_spec.shard_count = 2;
    RunOutcome outcome;
    ASSERT_TRUE(run_experiment(*scenario, shard_spec, outcome, err)) << err;
    shard_texts.push_back(shard_json(*scenario, shard_spec, outcome));
  }

  // Reference merge, then the same merge with shard 0 delivered twice.
  std::string reference, merged, merged_scenario;
  ASSERT_TRUE(merge_shards(shard_texts, reference, merged_scenario, err)) << err;
  ASSERT_TRUE(merge_shards({shard_texts[0], shard_texts[1], shard_texts[0]}, merged,
                           merged_scenario, err))
      << err;
  EXPECT_EQ(merged, reference);

  // Same shard index, one flipped digit: must be rejected, not unioned.
  const std::string tampered = tamper_first_double(shard_texts[0]);
  EXPECT_FALSE(merge_shards({shard_texts[0], shard_texts[1], tampered},
                            {"a.json", "b.json", "evil.json"}, merged, merged_scenario,
                            err));
  EXPECT_NE(err.find("duplicated with a different payload"), std::string::npos) << err;
  EXPECT_NE(err.find("evil.json"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST(ShardMerge, RejectsGarbageInput) {
  register_builtin_scenarios();
  std::string merged, merged_scenario, err;
  EXPECT_FALSE(merge_shards({"not json"}, merged, merged_scenario, err));
  EXPECT_FALSE(merge_shards({R"({"bench": "x"})"}, merged, merged_scenario, err));
  EXPECT_NE(err.find("format"), std::string::npos) << err;
  EXPECT_FALSE(merge_shards({}, merged, merged_scenario, err));

  // A corrupted field value (null where a double belongs) must be a merge
  // error, not a silent zero in the final trajectory.
  const std::string corrupted = R"({
    "format": "stbpu-shard-v1",
    "bench": "sec6_thresholds",
    "spec": {"scenario": "sec6_thresholds"},
    "points": [
      {"index": 0, "label": "BTB reuse-based side channel",
       "fields": [["mispredictions", "d", null]]}
    ]
  })";
  EXPECT_FALSE(merge_shards({corrupted}, merged, merged_scenario, err));
  EXPECT_NE(err.find("numeric"), std::string::npos) << err;
}

/// A real single-shard sec6_thresholds shard file.
std::string sec6_shard() {
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("sec6_thresholds");
  ExperimentSpec spec;
  spec.scenario = "sec6_thresholds";
  spec.shard_index = 0;
  spec.shard_count = 1;
  RunOutcome outcome;
  std::string err;
  EXPECT_TRUE(run_experiment(*scenario, spec, outcome, err)) << err;
  return shard_json(*scenario, spec, outcome);
}

/// `text` with `insert` placed before the first occurrence of `at`.
std::string insert_before(std::string text, const std::string& at, const std::string& insert) {
  const std::size_t pos = text.find(at);
  EXPECT_NE(pos, std::string::npos) << at;
  return text.insert(pos, insert);
}

TEST(ShardMerge, IntFieldsOutsideIntRangeAreRejected) {
  const std::string shard = sec6_shard();
  std::string merged, merged_scenario, err;
  ASSERT_TRUE(merge_shards({shard}, merged, merged_scenario, err)) << err;

  // Both ends of int's range merge as themselves.
  for (const std::string v : {"2147483647", "-2147483648"}) {
    const std::string edited =
        insert_before(shard, "[\"", "[\"limit\", \"i\", " + v + "], ");
    ASSERT_TRUE(merge_shards({edited}, merged, merged_scenario, err)) << v << ": " << err;
    EXPECT_NE(merged.find("\"limit\": " + v), std::string::npos) << merged;
  }
  // One past either end, 2^32 + 1 (which a 32-bit cast would read as 1), a
  // fraction and a non-number are named errors giving key and value.
  for (const std::string v : {"2147483648", "-2147483649", "4294967297", "1.5", "\"7\""}) {
    const std::string edited =
        insert_before(shard, "[\"", "[\"mispredictions\", \"i\", " + v + "], ");
    EXPECT_FALSE(merge_shards({edited}, merged, merged_scenario, err)) << v;
    EXPECT_NE(err.find("'mispredictions'"), std::string::npos) << err;
    EXPECT_NE(err.find("int range"), std::string::npos) << err;
    if (v[0] != '"') {
      EXPECT_NE(err.find(v), std::string::npos) << err;
    }
  }
}

TEST(ShardMerge, RepeatedKeyIsRejectedInEitherOrder) {
  // An empty "points" array beside the real one: read by first match, one
  // order would merge as "point missing from every shard" and the other
  // silently. The parser names the repeated key instead, with its offset.
  const std::string shard = sec6_shard();
  std::string merged, merged_scenario, err;
  const std::string before = insert_before(shard, "\"points\"", "\"points\": [], ");
  EXPECT_FALSE(merge_shards({before}, merged, merged_scenario, err));
  EXPECT_NE(err.find("repeated object key 'points'"), std::string::npos) << err;
  EXPECT_NE(err.find("offset " + std::to_string(before.find("\"points\": [\n"))),
            std::string::npos)
      << err;

  const std::string after =
      insert_before(shard, "\n}\n", ",\n  \"points\": []");
  EXPECT_FALSE(merge_shards({after}, merged, merged_scenario, err));
  EXPECT_NE(err.find("repeated object key 'points'"), std::string::npos) << err;
  EXPECT_NE(err.find("offset " + std::to_string(after.rfind("\"points\""))),
            std::string::npos)
      << err;
}

TEST(Runner, WriteFileIsAtomicAndCrashSafe) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "stbpu_write_file_test.json";
  std::remove(path.c_str());

  // Success: content lands, and no .tmp staging file is left behind.
  ASSERT_TRUE(write_file(path, "first\n"));
  std::string back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, "first\n");
  EXPECT_FALSE(read_file(path + ".tmp", back));

  // Overwrite goes through the same rename and replaces the old bytes.
  ASSERT_TRUE(write_file(path, "second\n"));
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, "second\n");

  // A failed write must leave the existing target untouched. Blocking the
  // staging path (a directory where <path>.tmp goes) forces the failure
  // without relying on permissions (tests may run as root).
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  EXPECT_FALSE(write_file(path, "third\n"));
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, "second\n");
  ASSERT_EQ(::rmdir((path + ".tmp").c_str()), 0);

  // An unwritable destination fails cleanly: no file, no stray .tmp.
  const std::string bad = dir + "no_such_subdir/out.json";
  EXPECT_FALSE(write_file(bad, "x"));
  EXPECT_FALSE(read_file(bad, back));
  EXPECT_FALSE(read_file(bad + ".tmp", back));

  std::remove(path.c_str());
}

TEST(Runner, RejectsOutOfRangePoints) {
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("sec6_thresholds");
  ASSERT_NE(scenario, nullptr);
  ExperimentSpec spec;
  spec.scenario = "sec6_thresholds";
  spec.points = {10'000};
  RunOutcome outcome;
  std::string err;
  EXPECT_FALSE(run_experiment(*scenario, spec, outcome, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(Runner, PointExceptionFailsTheRunCleanly) {
  // A bad --trace path throws inside run_point on a pool worker; the
  // runner must surface it as an error, not std::terminate.
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("fig3_oae");
  ASSERT_NE(scenario, nullptr);
  ExperimentSpec spec;
  spec.scenario = "fig3_oae";
  spec.trace_file = "/nonexistent/no_such.trace";
  RunOutcome outcome;
  std::string err;
  EXPECT_FALSE(run_experiment(*scenario, spec, outcome, err));
  EXPECT_NE(err.find("cannot open trace"), std::string::npos) << err;
  EXPECT_NE(err.find("trace:/nonexistent/no_such.trace"), std::string::npos) << err;
}

TEST(Runner, DeterministicAnalyticScenario) {
  // Cheap end-to-end: a fully analytic scenario merges bit-identically too
  // (single shard degenerate case).
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("sec6_thresholds");
  ExperimentSpec spec;
  spec.scenario = "sec6_thresholds";
  RunOutcome a, b;
  std::string err;
  ASSERT_TRUE(run_experiment(*scenario, spec, a, err)) << err;
  ASSERT_TRUE(run_experiment(*scenario, spec, b, err)) << err;
  EXPECT_EQ(final_json(*scenario, spec, a.points), final_json(*scenario, spec, b.points));

  std::string merged, merged_scenario;
  ExperimentSpec sharded = spec;
  sharded.shard_index = 0;
  sharded.shard_count = 1;
  ASSERT_TRUE(merge_shards({shard_json(*scenario, sharded, a)}, merged, merged_scenario,
                           err))
      << err;
  EXPECT_EQ(merged, final_json(*scenario, spec, a.points));
}

}  // namespace
}  // namespace stbpu::exp
