// Every registered scenario's BENCH JSON is a deterministic function of its
// spec: a small point subset of each, run at tiny budgets on one worker
// and on four, must render byte-identical final JSON. Wall-clock timing
// lives in perfbench/; a scenario field that read a clock (or depended on
// pool scheduling) would differ between the two runs and fail here.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec.h"

namespace stbpu::exp {
namespace {

/// The point subset each scenario runs, as a --points list. A new scenario
/// must be added here; the test fails for any registered scenario missing
/// from the table.
const std::map<std::string, std::string>& subsets() {
  static const std::map<std::string, std::string> kSubsets = {
      // One remap-function search (~1 s, the test's floor); the search is
      // single-threaded per point, so this checks for clock fields only.
      {"fig2_remapgen", "0"},
      {"sec6_thresholds", "0-8"},
      {"fig3_oae", "0,3"},
      // First and last Figure 4 cells: both AVERAGE rows they feed.
      {"fig4_single", "0,1,71"},
      {"fig5_smt", "0,123"},
      // Base pair 0, then pair 0 at r=0.05 for STBPU, CIBPU and XOR
      // isolation: one row per arm.
      {"fig6_rsweep", "0,4,28,52"},
      {"table1_attack_surface", "0-5"},
      {"ablation", "0-2"},
      {"sec6_empirical", "0,1"},
      {"attack_matrix", "0,5,10,15"},
      // The 1-tenant identity anchor and the 1K-tenant storm.
      {"tenant_churn", "0,1"},
  };
  return kSubsets;
}

std::string run_subset(const Scenario& scenario, const std::string& points,
                       unsigned jobs) {
  ExperimentSpec spec;
  spec.scenario = std::string(scenario.name());
  spec.scale.trace_branches = 20'000;
  spec.scale.trace_warmup = 2'000;
  spec.scale.ooo_instructions = 5'000;
  spec.scale.ooo_warmup = 500;
  spec.jobs = jobs;
  std::string err;
  EXPECT_TRUE(parse_points(points, spec.points, err)) << err;
  RunOutcome outcome;
  EXPECT_TRUE(run_experiment(scenario, spec, outcome, err)) << scenario.name() << ": " << err;
  return final_json(scenario, spec, outcome.points);
}

TEST(ScenarioDeterminism, EveryScenarioIsByteIdenticalAcrossWorkerCounts) {
  register_builtin_scenarios();
  for (const Scenario* scenario : all_scenarios()) {
    const std::string name(scenario->name());
    const auto it = subsets().find(name);
    if (it == subsets().end()) {
      ADD_FAILURE() << "scenario '" << name << "' has no point subset in this test";
      continue;
    }
    const std::string serial = run_subset(*scenario, it->second, 1);
    const std::string pooled = run_subset(*scenario, it->second, 4);
    EXPECT_NE(serial.find("\"rows\": [\n"), std::string::npos) << name << ": no rows";
    EXPECT_EQ(serial, pooled) << name << ": --jobs=1 and --jobs=4 disagree";
  }
  for (const auto& [name, points] : subsets()) {
    EXPECT_NE(find_scenario(name), nullptr) << "stale subset entry '" << name << "'";
  }
}

}  // namespace
}  // namespace stbpu::exp
