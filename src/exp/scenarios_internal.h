// Shared plumbing for the built-in scenario implementations (one
// registration function per translation unit, called from
// register_builtin_scenarios in scenarios.cc).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/remap_cache.h"
#include "exp/scenario.h"
#include "models/models.h"
#include "sim/ooo.h"

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

/// The `--cache-stats` side channel: per-function remap memo-cache counters
/// attached to a measurement point, so a BENCH_*.json consumer can
/// attribute memoization wins instead of inferring them from throughput
/// deltas.
inline void append_cache_stats(PointResult& p, const core::RemapCacheStats& s) {
  p.set("cache_hits", s.hits)
      .set("cache_misses", s.misses)
      .set("cache_invalidations", s.invalidations);
  for (unsigned f = 0; f < core::RemapCacheStats::kFnCount; ++f) {
    const std::string base = std::string("cache_") + core::RemapCacheStats::fn_name(f);
    p.set(base + "_hits", s.fn_hits[f]).set(base + "_misses", s.fn_misses[f]);
  }
}

/// The `--stall-stats` side channel: the tick core's per-thread stall
/// attribution attached to a cycle-level measurement point — where the
/// simulated machine's cycles went (shared fetch port, branch redirects,
/// ROB/IQ/LQ/SQ occupancy), so IPC deltas between configurations are
/// attributable to a pipeline structure instead of inferred.
inline void append_stall_stats(PointResult& p, const sim::OooResult& r) {
  for (unsigned t = 0; t < r.threads; ++t) {
    const sim::OooThreadStalls& s = r.stalls[t];
    // Split concatenation (GCC 12 -Wrestrict false positive on
    // `"lit" + std::string&&` chains, as in runner.cc).
    std::string base = "t";
    base += std::to_string(t);
    base += "_stall_";
    p.set(base + "fetch_bandwidth_cycles", s.fetch_bandwidth)
        .set(base + "redirect_cycles", s.redirect)
        .set(base + "rob_cycles", s.rob)
        .set(base + "iq_cycles", s.iq)
        .set(base + "lq_cycles", s.lq)
        .set(base + "sq_cycles", s.sq);
  }
}

namespace scenarios {
void register_analysis();  // fig2_remapgen, sec6_thresholds, table2_remap_functions
void register_attacks();   // table1_attack_surface, ablation, sec6_empirical
void register_trace();     // fig3_oae
void register_ooo();       // fig4_single, fig5_smt, fig6_rsweep, ooo_engine
void register_mix();       // mix_batch (keyed-mix kernel study)
void register_tenant();    // tenant_churn (multi-tenant ψ-token service)
}  // namespace scenarios

}  // namespace stbpu::exp
