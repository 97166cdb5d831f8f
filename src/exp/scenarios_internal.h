// Shared plumbing for the built-in scenario implementations (one
// registration function per translation unit, called from
// register_builtin_scenarios in scenarios.cc).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.h"
#include "models/models.h"

namespace stbpu::exp {

class ScenarioBase : public Scenario {
 public:
  ScenarioBase(std::string name, std::string title)
      : name_(std::move(name)), title_(std::move(title)) {}
  [[nodiscard]] std::string_view name() const final { return name_; }
  [[nodiscard]] std::string_view title() const final { return title_; }

 private:
  std::string name_, title_;
};

/// Indices of the spec's selected grid points, in sweep order (the whole
/// grid when no explicit --points selection). Aggregates iterate this so a
/// subset run produces rows — and averages — over exactly what ran.
inline std::vector<std::size_t> selected_indices(const ExperimentSpec& spec,
                                                 std::size_t grid_size) {
  std::vector<std::size_t> out;
  out.reserve(grid_size);
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (spec.selected(i)) out.push_back(i);
  }
  return out;
}

/// Model spec with the experiment spec's overrides applied: the seed, and
/// the optional monitor thresholds / difficulty factor (the spec's nested
/// "monitor" object). One helper shared by every scenario that builds
/// engines, so a --gamma-m sweep reaches all of them identically. fig6 is
/// the deliberate exception for difficulty_r: it sweeps r itself, so it
/// overwrites rerand_difficulty_r per point after this call (explicit Γ
/// overrides still pin the thresholds there — documented in
/// docs/EXPERIMENTS.md).
inline models::ModelSpec apply_spec_overrides(models::ModelSpec mspec,
                                              const ExperimentSpec& spec) {
  if (spec.seed != 0) mspec.seed = spec.seed;
  if (spec.monitor.difficulty_r != 0.0) {
    mspec.rerand_difficulty_r = spec.monitor.difficulty_r;
  }
  mspec.misprediction_threshold = spec.monitor.misprediction_threshold;
  mspec.eviction_threshold = spec.monitor.eviction_threshold;
  mspec.tagged_misprediction_threshold = spec.monitor.tagged_misprediction_threshold;
  return mspec;
}

namespace scenarios {
void register_analysis();  // fig2_remapgen, sec6_thresholds
void register_attacks();   // table1_attack_surface, ablation, sec6_empirical
void register_trace();     // fig3_oae
void register_ooo();       // fig4_single, fig5_smt, fig6_rsweep
void register_tenant();    // tenant_churn (multi-tenant ψ-token service)
}  // namespace scenarios

}  // namespace stbpu::exp
