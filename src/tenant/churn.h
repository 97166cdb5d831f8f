// Context-switch-storm driver for the multi-tenant ψ-token service: the
// tenant_churn scenario's workload generator. Three phases —
//
//   1. registration: all N tenants enter the sharded token table;
//   2. storm: `storm_passes` full acquire/release sweeps over every tenant
//      with zero branches between them — pure scheduling pressure that
//      exercises pid-slot recycling (save/retire/restore) at rates far
//      above any branchy workload;
//   3. branchy churn: a seeded scheduler picks a tenant (hot-set biased),
//      acquires it, replays a burst of trace records under its engine
//      context, releases it — with optional scripted shard invalidations
//      driving generation-based re-keys mid-run.
//
// The replay loop mirrors sim::replay's statement sequence exactly
// (on_switch before the first access of a differing context; post-warmup
// switch counters; absorb gated on processed >= warmup; processed bumped
// after), so a 1-tenant run — where the service's virgin-slot path issues
// zero STManager/EventMonitor calls — produces BranchStats bit-identical
// to models::replay_engine on the same records. The tenant_churn scenario
// asserts that equality; it is the subsystem's correctness anchor.
//
// Templated on the engine so the concrete EngineT recovered by
// exp::for_each_engine keeps the per-branch access() devirtualized.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "bpu/types.h"
#include "core/monitor.h"
#include "core/secret_token.h"
#include "sim/stats.h"
#include "tenant/token_service.h"
#include "util/percentile.h"
#include "util/rng.h"

namespace stbpu::tenant {

struct ChurnConfig {
  std::uint64_t tenants = 1;
  TokenServiceConfig service{};
  /// Phase-2 acquire/release sweeps over all tenants (0 = skip the storm).
  std::uint64_t storm_passes = 0;
  std::uint64_t max_branches = 400'000;
  std::uint64_t warmup_branches = 50'000;
  std::uint32_t burst = 64;  ///< branches per scheduling quantum
  /// Scheduler skew: with probability hot_fraction the next tenant comes
  /// from the first `hot_tenants` ids (a resident working set), otherwise
  /// uniformly from all N (the cold long tail).
  std::uint64_t hot_tenants = 16;
  double hot_fraction = 0.9;
  /// Invalidate one shard (round-robin) every this many bursts; 0 = never.
  std::uint64_t invalidate_every = 0;
  std::uint64_t seed = 0x5EED5;
  TenantId first_id = 1;
};

struct ChurnResult {
  sim::BranchStats stats;    ///< post-warmup aggregate, replay-identical
  ServiceStats service;      ///< token-service counters at end of run
  std::uint64_t table_size = 0;   ///< live table entries at end of run
  std::uint64_t branches_processed = 0;  ///< including warmup
  std::uint64_t storm_acquires = 0;
  std::uint64_t failed_acquires = 0;
  std::uint64_t tenants_touched = 0;  ///< ran ≥1 post-warmup branch
  std::uint64_t stm_rerandomizations = 0;
  std::uint64_t monitor_rerandomizations = 0;
  // Per-tenant misprediction-rate tail (each touched tenant contributes its
  // post-warmup mispredictions/branches once) and per-acquire lookup cost
  // in hash-chain probe steps — both from seeded reservoirs, so they are
  // deterministic for a fixed (workload, seed) pair.
  double misp_p50 = 0.0, misp_p99 = 0.0;
  double probe_p50 = 0.0, probe_p99 = 0.0;
  /// Wall-clock time of the branchy-churn phase (perfbench's churn cells
  /// time it; no scenario field reads it).
  double churn_seconds = 0.0;
};

template <class Engine>
ChurnResult run_churn(Engine& engine, std::span<const bpu::BranchRecord> base,
                      const ChurnConfig& cfg,
                      std::vector<core::MonitorConfig> qos_classes) {
  using clock = std::chrono::steady_clock;
  ChurnResult out;
  if (base.empty() || cfg.tenants == 0) return out;

  // Engines without token state (the unprotected baseline) still drive the
  // service's full scheduling machinery against a standby manager — the
  // service's behavior must not depend on the engine family.
  core::STManager* stm = engine.tokens();
  core::STManager standby(cfg.seed ^ 0xA5A5);
  if (stm == nullptr) stm = &standby;
  core::EventMonitor* mon = engine.monitor();
  const std::uint64_t stm_rerand0 = stm->rerandomizations();
  const std::uint64_t mon_rerand0 = mon != nullptr ? mon->rerandomizations() : 0;

  const std::size_t n_qos = qos_classes.empty() ? 1 : qos_classes.size();
  TokenService svc(cfg.service, std::move(qos_classes));
  const auto qos_of = [n_qos](std::uint64_t t) {
    return static_cast<std::uint8_t>(t % n_qos);
  };

  // Phase 1: registration. Tenant t=0 lands in QoS class 0 — the engine's
  // own monitor config — which the 1-tenant bit-identity contract requires.
  for (std::uint64_t t = 0; t < cfg.tenants; ++t) {
    (void)svc.register_tenant(cfg.first_id + t, qos_of(t));
  }

  // Phase 2: context-switch storm, zero branches.
  for (std::uint64_t pass = 0; pass < cfg.storm_passes; ++pass) {
    for (std::uint64_t t = 0; t < cfg.tenants; ++t) {
      const TenantId id = cfg.first_id + t;
      const auto a = svc.acquire(id, *stm, mon);
      if (a.status != AcquireStatus::kOk) {
        ++out.failed_acquires;
        continue;
      }
      ++out.storm_acquires;
      svc.release(id);
    }
  }

  // Phase 3: branchy churn. The loop body mirrors sim::replay record for
  // record; every deviation would break the bit-identity anchor.
  util::Xoshiro256 rng(cfg.seed);
  std::vector<std::uint32_t> cursor(cfg.tenants);
  for (std::uint64_t t = 0; t < cfg.tenants; ++t) {
    cursor[t] = static_cast<std::uint32_t>((t * 9973) % base.size());
  }
  std::vector<std::uint32_t> tenant_branches(cfg.tenants, 0);
  std::vector<std::uint32_t> tenant_misses(cfg.tenants, 0);
  util::PercentileReservoir probe_res(std::size_t{1} << 16, 0x9E11E5);

  const std::uint64_t budget = cfg.warmup_branches + cfg.max_branches;
  const std::uint32_t burst_len = std::max<std::uint32_t>(cfg.burst, 1);
  const std::uint64_t hot = std::min(cfg.hot_tenants, cfg.tenants);
  std::uint64_t processed = 0;
  std::uint64_t bursts = 0;
  std::uint32_t next_shard = 0;
  bpu::ExecContext prev{};
  bool have_prev = false;

  const auto churn_start = clock::now();
  while (processed < budget) {
    std::uint64_t t = 0;
    if (cfg.tenants > 1) {
      t = (hot > 0 && rng.chance(cfg.hot_fraction)) ? rng.below(hot)
                                                    : rng.below(cfg.tenants);
    }
    const auto a = svc.acquire(cfg.first_id + t, *stm, mon);
    if (a.status != AcquireStatus::kOk) {
      ++out.failed_acquires;
      continue;
    }
    probe_res.add(static_cast<double>(a.probe_steps));
    if (have_prev && !(a.ctx == prev)) {
      engine.on_switch(prev, a.ctx);
      if (processed >= cfg.warmup_branches) {
        if (a.ctx.pid != prev.pid) {
          ++out.stats.context_switches;
        } else {
          ++out.stats.mode_switches;
        }
      }
    }
    prev = a.ctx;
    have_prev = true;

    std::uint32_t cur = cursor[t];
    const std::uint32_t burst = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(burst_len, budget - processed));
    for (std::uint32_t i = 0; i < burst; ++i) {
      bpu::BranchRecord rec = base[cur];
      cur = (cur + 1 == base.size()) ? 0 : cur + 1;
      rec.ctx = a.ctx;
      const bpu::AccessResult res = engine.access(rec);
      if (processed >= cfg.warmup_branches) {
        out.stats.absorb(rec, res);
        ++tenant_branches[t];
        if (!res.overall_correct) ++tenant_misses[t];
      }
      ++processed;
    }
    cursor[t] = cur;
    svc.release(cfg.first_id + t);
    ++bursts;
    if (cfg.invalidate_every != 0 && bursts % cfg.invalidate_every == 0) {
      svc.invalidate_shard(next_shard);
      next_shard = (next_shard + 1) % svc.shard_count();
    }
  }
  out.churn_seconds = std::chrono::duration<double>(clock::now() - churn_start).count();

  util::PercentileReservoir misp_res(std::size_t{1} << 16, 0x7A115);
  for (std::uint64_t t = 0; t < cfg.tenants; ++t) {
    if (tenant_branches[t] == 0) continue;
    ++out.tenants_touched;
    misp_res.add(static_cast<double>(tenant_misses[t]) /
                 static_cast<double>(tenant_branches[t]));
  }
  out.misp_p50 = misp_res.p50();
  out.misp_p99 = misp_res.p99();
  out.probe_p50 = probe_res.p50();
  out.probe_p99 = probe_res.p99();
  out.branches_processed = processed;
  out.stm_rerandomizations = stm->rerandomizations() - stm_rerand0;
  out.monitor_rerandomizations =
      mon != nullptr ? mon->rerandomizations() - mon_rerand0 : 0;
  out.service = svc.stats();
  out.table_size = svc.size();
  return out;
}

}  // namespace stbpu::tenant
