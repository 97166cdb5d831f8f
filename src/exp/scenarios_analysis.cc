// Analytic / generator scenarios: the §VI-A5 complexity table and the
// Figure 2 remapping-function search. All grid points are independent
// computations, so they shard like any sweep.
#include <cstdio>

#include "analysis/equations.h"
#include "exp/scenarios_internal.h"
#include "remapgen/search.h"

namespace stbpu::exp {

namespace {

std::string format_r(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", r);
  return buf;
}

// ---------------------------------------------------------------------------
// sec6_thresholds — §VI-A5 attack complexities + Γ = r·C thresholds.
// ---------------------------------------------------------------------------

constexpr double kThresholdRs[] = {1.0, 0.1, 0.05, 0.01, 0.001};

class Sec6ThresholdsScenario final : public ScenarioBase {
 public:
  Sec6ThresholdsScenario()
      : ScenarioBase("sec6_thresholds",
                     "Section VI-A5: attack complexities and re-randomization "
                     "thresholds") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const auto& row : analysis::section_vi5_table()) labels.push_back(row.attack);
    for (const double r : kThresholdRs) labels.push_back("thresholds_r=" + format_r(r));
    return labels;
  }

  PointResult run_point(const ExperimentSpec&, std::size_t index) const override {
    PointResult p;
    const auto table = analysis::section_vi5_table();
    if (index < table.size()) {
      p.set("mispredictions", table[index].mispredictions)
          .set("evictions", table[index].evictions);
    } else {
      const double r = kThresholdRs[index - table.size()];
      const auto t = analysis::derive_thresholds(r);
      p.set("difficulty_r", r)
          .set("misprediction_threshold", std::uint64_t{t.mispredictions})
          .set("eviction_threshold", std::uint64_t{t.evictions});
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const auto labels = point_labels(spec);
    for (const std::size_t i : selected_indices(spec, points.size())) {
      Row& row = out.rows.emplace_back(labels[i]);
      row.fields = points[i].fields;
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// fig2_remapgen — automated remapping-function generation (Table II specs).
// ---------------------------------------------------------------------------

remapgen::SearchConfig fig2_config(const Scale& scale) {
  remapgen::SearchConfig cfg;
  cfg.candidates = scale.paper ? 64 : 16;
  cfg.validation.uniformity_samples = scale.paper ? (1u << 17) : (1u << 14);
  cfg.validation.avalanche_samples = scale.paper ? 2048 : 256;
  return cfg;
}

class Fig2Scenario final : public ScenarioBase {
 public:
  Fig2Scenario()
      : ScenarioBase("fig2_remapgen",
                     "Figure 2: automated remapping-function generation "
                     "(Table II specs)") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const auto& spec : remapgen::table2_specs()) labels.push_back(spec.name);
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const auto specs = remapgen::table2_specs();
    const auto r = remapgen::search(specs[index], fig2_config(spec.scale));
    PointResult p;
    if (r.best) {
      p.set("input_bits", std::uint64_t{specs[index].input_bits})
          .set("output_bits", std::uint64_t{specs[index].output_bits})
          .set("generated", std::uint64_t{r.generated})
          .set("passed", std::uint64_t{r.passed})
          .set("critical_path_transistors",
               std::uint64_t{r.best->critical_path_transistors()})
          .set("total_transistors", std::uint64_t{r.best->total_transistors()})
          .set("mean_avalanche", r.best_report.mean_avalanche)
          .set("score", r.best_report.score);
    } else {
      p.set("passed", std::uint64_t{0});
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const auto labels = point_labels(spec);
    for (const std::size_t i : selected_indices(spec, points.size())) {
      Row& row = out.rows.emplace_back(labels[i]);
      row.fields = points[i].fields;
    }
    return out;
  }
};

}  // namespace

namespace scenarios {

void register_analysis() {
  register_scenario(new Fig2Scenario);
  register_scenario(new Sec6ThresholdsScenario);
}

}  // namespace scenarios

}  // namespace stbpu::exp
