// The attack_matrix scenario's security outcomes, pinned: every
// collision/DoS attack against every defense arm at quick scale, run
// through the same runner path as `stbpu_bench run attack_matrix`. The
// rendered BENCH JSON must also be byte-identical across worker counts —
// the scenario has no timing fields, so any difference is a determinism
// bug.
#include <gtest/gtest.h>

#include <string>

#include "exp/json.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec.h"

namespace stbpu::exp {
namespace {

std::string run_matrix(unsigned jobs) {
  register_builtin_scenarios();
  const Scenario* scenario = find_scenario("attack_matrix");
  EXPECT_NE(scenario, nullptr);
  if (scenario == nullptr) return {};
  ExperimentSpec spec;
  spec.scenario = "attack_matrix";
  spec.scale = *Scale::named("quick");
  spec.jobs = jobs;
  RunOutcome outcome;
  std::string err;
  EXPECT_TRUE(run_experiment(*scenario, spec, outcome, err)) << err;
  return final_json(*scenario, spec, outcome.points);
}

class AttackMatrix : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    json_ = run_matrix(1);
    std::string err;
    ASSERT_TRUE(json_parse(json_, parsed_, err)) << err;
  }

  /// Field `key` of the row labelled `attack`; fails the test when absent.
  static const JsonValue& field(const std::string& attack, const std::string& key) {
    static const JsonValue kMissing;
    const JsonValue* rows = parsed_.find("rows");
    if (rows != nullptr) {
      for (const JsonValue& row : rows->items()) {
        const JsonValue* label = row.find("label");
        if (label == nullptr || label->text() != attack) continue;
        if (const JsonValue* v = row.find(key)) return *v;
      }
    }
    ADD_FAILURE() << "no field " << attack << "." << key;
    return kMissing;
  }

  static inline std::string json_;
  static inline JsonValue parsed_;
};

TEST_F(AttackMatrix, GemBreaksUnprotectedAndXorIsolationOnly) {
  // XOR masking is a fixed per-domain permutation of sets, so GEM builds a
  // minimal eviction set exactly as on the baseline; keyed indexing (plus
  // the monitor) stops it on STBPU and CIBPU.
  for (const char* arm : {"unprotected", "XOR_isolation"}) {
    EXPECT_EQ(field("gem_btb", std::string(arm) + "_succeeds").text(), "true") << arm;
    EXPECT_EQ(field("gem_btb", std::string(arm) + "_eviction_set_size").text(), "8") << arm;
  }
  for (const char* arm : {"STBPU", "CIBPU"}) {
    EXPECT_EQ(field("gem_btb", std::string(arm) + "_succeeds").text(), "false") << arm;
  }
}

TEST_F(AttackMatrix, DosDegradesOnlyTheUnprotectedVictim) {
  for (const char* attack : {"dos_eviction", "dos_reuse"}) {
    for (const char* arm : {"STBPU", "CIBPU", "XOR_isolation"}) {
      EXPECT_EQ(field(attack, std::string(arm) + "_degradation").as_double(), 0.0)
          << attack << "/" << arm;
      EXPECT_EQ(field(attack, std::string(arm) + "_succeeds").text(), "false")
          << attack << "/" << arm;
    }
    EXPECT_EQ(field(attack, "unprotected_succeeds").text(), "true") << attack;
  }
  EXPECT_EQ(field("dos_eviction", "unprotected_degradation").as_double(), 0.140625);
  EXPECT_EQ(field("dos_reuse", "unprotected_degradation").as_double(), 1.0);
}

TEST_F(AttackMatrix, JsonIsByteIdenticalAcrossWorkerCounts) {
  EXPECT_EQ(run_matrix(4), json_);
}

}  // namespace
}  // namespace stbpu::exp
