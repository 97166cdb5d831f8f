// tenant_churn — the multi-tenant ψ-token service under scheduling churn:
// N tenants (1 → ≥1M) multiplexed onto the engine's bounded pid pool
// through tenant::TokenService, driven by tenant::run_churn's
// register → context-switch-storm → branchy-churn phases. Reports the
// service's scheduling/eviction counters and per-tenant misprediction +
// lookup tails (p50/p99); every field is deterministic.
//
// The 1-tenant point is the subsystem's correctness anchor: the service's
// virgin-slot path issues zero STManager/EventMonitor calls, so its
// BranchStats must equal models::replay_engine on the identical records
// bit for bit — published as the string field "identical_stats", which the
// CI compare gate treats as fatal on mismatch.
#include <algorithm>
#include <memory>
#include <string>

#include "core/monitor.h"
#include "exp/engine_visit.h"
#include "exp/scenarios_internal.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "tenant/churn.h"
#include "tenant/token_service.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu::exp {

namespace {

struct TenantPoint {
  const char* label;
  std::uint64_t tenants;
  std::uint32_t shard_capacity;  ///< per-shard entries (eviction pressure knob)
};

// Default service: 64 shards × 16K entries = exactly 1,048,576 managed
// contexts. The last point re-runs the 1M-tenant storm with 1/4 the
// capacity so the clock hand must continuously evict cold tenants.
constexpr TenantPoint kPoints[] = {
    {"tenants_1", 1, 1u << 14},
    {"tenants_1024", 1024, 1u << 14},
    {"tenants_32768", 32768, 1u << 14},
    {"tenants_1048576", 1u << 20, 1u << 14},
    {"tenants_1048576_evict", 1u << 20, 1u << 12},
};

/// QoS ladder rooted at the engine's own monitor config: class 0 IS that
/// config (the bit-identity contract), class 1 re-keys 8× sooner (a
/// tenant under suspected attack), class 2 8× later (a trusted batch job).
std::vector<core::MonitorConfig> qos_ladder(const core::MonitorConfig& base) {
  const auto scaled = [&](std::uint64_t num, std::uint64_t den) {
    core::MonitorConfig c = base;
    const auto mul = [&](std::uint64_t v) {
      const std::uint64_t s = v * num / den;
      return v == 0 ? std::uint64_t{0} : std::max<std::uint64_t>(s, 1);
    };
    c.misprediction_threshold = mul(base.misprediction_threshold);
    c.eviction_threshold = mul(base.eviction_threshold);
    c.tagged_misprediction_threshold = mul(base.tagged_misprediction_threshold);
    return c;
  };
  return {base, scaled(1, 8), scaled(8, 1)};
}

class TenantChurnScenario final : public ScenarioBase {
 public:
  TenantChurnScenario()
      : ScenarioBase("tenant_churn",
                     "Multi-tenant ST token service: context-switch storm, "
                     "clock-hand eviction, per-tenant QoS and tail metrics") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const TenantPoint& p : kPoints) labels.emplace_back(p.label);
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const TenantPoint& pt = kPoints[index];
    const std::uint64_t total = spec.scale.trace_warmup + spec.scale.trace_branches;

    tenant::ChurnConfig cfg;
    cfg.tenants = pt.tenants;
    cfg.service.shard_capacity = pt.shard_capacity;
    cfg.max_branches = spec.scale.trace_branches;
    cfg.warmup_branches = spec.scale.trace_warmup;
    // Budget the storm at ~1M context switches regardless of tenant count
    // (whole passes over the tenant set); the 1-tenant anchor skips it to
    // keep the identity run minimal.
    cfg.storm_passes =
        pt.tenants > 1 ? std::max<std::uint64_t>((1u << 20) / pt.tenants, 1) : 0;
    cfg.hot_tenants = 64;
    cfg.invalidate_every = pt.tenants > 1 ? 1024 : 0;
    if (spec.seed != 0) cfg.seed ^= spec.seed;

    // All points replay the same materialized workload, pre-stamped with
    // the service's first slot context so the 1-tenant churn records are
    // byte-identical to what the replay anchor consumes.
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
    std::vector<bpu::BranchRecord> base = trace::collect(gen, total);
    const bpu::ExecContext slot0{
        .pid = cfg.service.first_pid, .hart = 0, .kernel = false};
    for (bpu::BranchRecord& r : base) r.ctx = slot0;

    const auto mspec = apply_spec_overrides({.model = models::ModelKind::kStbpu}, spec);
    PointResult p;
    tenant::ChurnResult r;
    for_each_engine(mspec, [&](auto& engine) {
      const core::MonitorConfig mon_cfg = engine.monitor() != nullptr
                                              ? engine.monitor()->config()
                                              : core::MonitorConfig{};
      r = tenant::run_churn(engine, base, cfg, qos_ladder(mon_cfg));
    });

    if (pt.tenants == 1) {
      // Bit-identity anchor: a fresh, identically-specced engine replaying
      // the same records without the tenant layer must produce the same
      // BranchStats field for field.
      auto ref_engine = models::make_engine(mspec);
      trace::VectorStream stream(base);
      const sim::BranchStats ref = models::replay_engine(
          *ref_engine, stream,
          {.max_branches = cfg.max_branches, .warmup_branches = cfg.warmup_branches});
      p.set("identical_stats", ref == r.stats ? "true" : "false");
    }

    p.set("tenants", std::uint64_t{pt.tenants})
        .set("shard_capacity", std::uint64_t{pt.shard_capacity})
        .set("branches", r.stats.branches)
        .set("mispredictions", r.stats.mispredictions)
        .set("oae", r.stats.oae())
        .set("context_switches", r.stats.context_switches)
        .set("storm_acquires", r.storm_acquires)
        .set("failed_acquires", r.failed_acquires)
        .set("tenants_touched", r.tenants_touched)
        .set("table_size", r.table_size)
        .set("registrations", r.service.registrations)
        .set("acquires", r.service.acquires)
        .set("resumes", r.service.resumes)
        .set("slot_recycles", r.service.slot_recycles)
        .set("installs", r.service.installs)
        .set("fresh_tokens", r.service.fresh_tokens)
        .set("rekeys", r.service.rekeys)
        .set("evictions", r.service.evictions)
        .set("table_full", r.service.table_full)
        .set("pid_exhausted", r.service.pid_exhausted)
        .set("invalidations", r.service.invalidations)
        .set("invalidation_entry_touches", r.service.invalidation_entry_touches)
        .set("probe_steps", r.service.probe_steps)
        .set("stm_rerandomizations", r.stm_rerandomizations)
        .set("monitor_rerandomizations", r.monitor_rerandomizations)
        .set("misp_p50", r.misp_p50)
        .set("misp_p99", r.misp_p99)
        .set("probe_p50", r.probe_p50)
        .set("probe_p99", r.probe_p99);
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
    out.meta.push_back(
        {"branches_per_point",
         Value(std::uint64_t{spec.scale.trace_warmup + spec.scale.trace_branches})});
    out.meta.push_back({"pid_slots", Value(std::uint64_t{256})});
    return out;
  }
};

}  // namespace

namespace scenarios {

void register_tenant() { register_scenario(new TenantChurnScenario); }

}  // namespace scenarios

}  // namespace stbpu::exp
