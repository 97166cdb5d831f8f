// The three benchmark workloads. Each is a closed loop on one thread: a
// cell's slice builds a fresh engine, simulates a fixed input through the
// library's public entry points, and returns the digest of the simulated
// result plus the host time of the timed region.
//
//   replay_steady — trace replay (models::replay_engine) of two profiles
//                   through the six fig4 throughput arms;
//   replay_churn  — tenant::run_churn over 32768 tenants on 256 pid slots;
//   ooo_core      — sim::run_ooo on pregenerated instruction traces.
//
// Metrics a workload does not exercise natively come from small companion
// cells (a token-service storm, a short cycle-level run) so that every
// workload reports every end-to-end metric; companions never enter the
// branches_per_s geomean.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exp/engine_visit.h"
#include "models/engine.h"
#include "models/models.h"
#include "perfbench.h"
#include "core/monitor.h"
#include "sim/ooo.h"
#include "sim/stats.h"
#include "tenant/churn.h"
#include "trace/generator.h"
#include "trace/pregen.h"
#include "trace/profile.h"
#include "trace/stream.h"
#include "workloads.h"

namespace perfbench {

namespace {

using stbpu::models::DirectionKind;
using stbpu::models::ModelKind;
namespace bpu = stbpu::bpu;
namespace exp = stbpu::exp;
namespace models = stbpu::models;
namespace sim = stbpu::sim;
namespace tenant = stbpu::tenant;
namespace trace = stbpu::trace;

void digest_stats(Digest& d, const sim::BranchStats& s) {
  for (const std::uint64_t v :
       {s.branches, s.conditionals, s.direction_correct, s.needs_target, s.target_correct,
        s.oae_correct, s.mispredictions, s.btb_evictions, s.rsb_underflows,
        s.context_switches, s.mode_switches}) {
    d.add(v);
  }
}

void digest_service(Digest& d, const tenant::ServiceStats& s) {
  for (const std::uint64_t v :
       {s.registrations, s.acquires, s.releases, s.resumes, s.slot_recycles, s.installs,
        s.fresh_tokens, s.rekeys, s.evictions, s.table_full, s.pid_exhausted,
        s.invalidations, s.invalidation_entry_touches, s.lookups, s.probe_steps}) {
    d.add(v);
  }
}

void digest_ooo(Digest& d, const sim::OooResult& r) {
  d.add(std::uint64_t{r.threads});
  for (unsigned t = 0; t < r.threads; ++t) {
    d.add(r.instructions[t]);
    d.add(r.cycles[t]);
    digest_stats(d, r.branch_stats[t]);
    const sim::OooThreadStalls& s = r.stalls[t];
    for (const double v : {s.fetch_bandwidth, s.redirect, s.rob, s.iq, s.lq, s.sq}) d.add(v);
  }
  const auto& c = r.cache;
  for (const std::uint64_t v :
       {c.l1d_hits, c.l1d_misses, c.l2_hits, c.l2_misses, c.llc_hits, c.llc_misses}) {
    d.add(v);
  }
}

/// Branches among the first `n` instructions of a pregenerated trace.
double branches_in_prefix(const trace::InstrTrace& t, std::uint64_t n) {
  const auto& b = t.block;
  const std::size_t k = std::min<std::size_t>(n, b.size());
  if (k == b.size()) return static_cast<double>(b.branches.size());
  return static_cast<double>(b.branch_before[k]);
}

/// Token-service storm and short churn over the workload's own branches:
/// the companion that gives replay_steady and ooo_core acquire_probe_p99.
Cell churn_probe_cell(const std::vector<bpu::BranchRecord>* base, std::uint64_t seed) {
  tenant::ChurnConfig cfg = churn_config(seed);
  cfg.storm_passes = 1;
  cfg.warmup_branches = 0;
  cfg.max_branches = kProbeChurnBranches;
  return Cell{"probe/churn-STBPU-SKLCond",
              [base, cfg] { return churn_slice(churn_arm(ModelKind::kStbpu), *base, cfg); },
              false};
}

/// Short cycle-level run: the companion that gives the replay workloads
/// their ipc metric.
Cell ooo_probe_cell(const InstrTracePtr& t) {
  return Cell{"probe/ooo-STBPU-SKLCond",
              [t] {
                return ooo_slice({.model = ModelKind::kStbpu,
                                  .direction = DirectionKind::kSklCond},
                                 {t}, kProbeOooWarmup, kProbeOooBudget);
              },
              false};
}

class ReplaySteady final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    // Release the previous set-up's inputs first, so a repeated set-up
    // never holds two copies.
    cells_.clear();
    for (auto& s : streams_) s.reset();
    probe_trace_.reset();
    for (std::size_t p = 0; p < kReplayProfiles.size(); ++p) {
      streams_[p] = std::make_unique<trace::VectorStream>(
          branch_trace(kReplayProfiles[p], seed, kReplayWarmup + kReplayBranches));
    }
    probe_trace_ = ooo_trace("mcf", seed, kProbeOooWarmup + kProbeOooBudget);
    (void)models::make_engine({.model = kReplayArms[0].model,
                               .direction = kReplayArms[0].direction});
    for (std::size_t p = 0; p < kReplayProfiles.size(); ++p) {
      for (const Arm& arm : kReplayArms) {
        trace::VectorStream* stream = streams_[p].get();
        cells_.push_back(Cell{std::string(kReplayProfiles[p]) + "/" + arm.name,
                              [stream, arm] { return replay_slice(arm, *stream); }});
      }
    }
    cells_.push_back(churn_probe_cell(&streams_[0]->records(), seed));
    cells_.push_back(ooo_probe_cell(probe_trace_));
  }
  std::vector<Cell>& cells() override { return cells_; }

 private:
  std::unique_ptr<trace::VectorStream> streams_[kReplayProfiles.size()];
  InstrTracePtr probe_trace_;
  std::vector<Cell> cells_;
};

class ReplayChurn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cells_.clear();
    base_ = {};
    probe_trace_.reset();
    base_ = branch_trace("mcf", seed, kReplayWarmup + kReplayBranches);
    probe_trace_ = ooo_trace("mcf", seed, kProbeOooWarmup + kProbeOooBudget);
    (void)models::make_engine(churn_arm(ModelKind::kStbpu));
    const tenant::ChurnConfig cfg = churn_config(seed);
    for (const auto& [kind, name] : kChurnArms) {
      const auto* base = &base_;
      const models::ModelSpec spec = churn_arm(kind);
      cells_.push_back(Cell{std::string("mcf/") + name,
                            [base, spec, cfg] { return churn_slice(spec, *base, cfg); }});
    }
    cells_.push_back(ooo_probe_cell(probe_trace_));
  }
  std::vector<Cell>& cells() override { return cells_; }

 private:
  std::vector<bpu::BranchRecord> base_;
  InstrTracePtr probe_trace_;
  std::vector<Cell> cells_;
};

class OooCore final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cells_.clear();
    mcf_.reset();
    exchange2_.reset();
    probe_base_ = {};
    const std::uint64_t n = kOooWarmup + kOooBudget + kOooSlack;
    mcf_ = ooo_trace("mcf", seed, n);
    exchange2_ = ooo_trace("exchange2", seed, n);
    (void)models::make_engine({.model = kOooArms[0].model,
                               .direction = kOooArms[0].direction});
    probe_base_ = mcf_->block.branches;
    for (const auto& t : {mcf_, exchange2_}) {
      for (const Arm& arm : kOooArms) {
        const models::ModelSpec spec{.model = arm.model, .direction = arm.direction};
        cells_.push_back(Cell{t->profile.name + "/" + arm.name, [t, spec] {
                                return ooo_slice(spec, {t}, kOooWarmup, kOooBudget);
                              }});
      }
    }
    cells_.push_back(Cell{"mcf+exchange2/STBPU-SKLCond-SMT", [m = mcf_, e = exchange2_] {
                            return ooo_slice({.model = ModelKind::kStbpu,
                                              .direction = DirectionKind::kSklCond},
                                             {m, e}, kOooWarmup, kOooBudget);
                          }});
    cells_.push_back(churn_probe_cell(&probe_base_, seed));
  }
  std::vector<Cell>& cells() override { return cells_; }

 private:
  InstrTracePtr mcf_, exchange2_;
  std::vector<bpu::BranchRecord> probe_base_;
  std::vector<Cell> cells_;
};

}  // namespace

std::uint64_t profile_salt(std::string_view profile) {
  Digest d;
  for (const char c : profile) d.add(static_cast<std::uint64_t>(c));
  return d.value();
}

std::vector<bpu::BranchRecord> branch_trace(std::string_view profile, std::uint64_t seed,
                                            std::uint64_t n) {
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name(std::string(profile)),
                                        input_seed(seed, profile_salt(profile)));
  return trace::collect(gen, n);
}

InstrTracePtr ooo_trace(std::string_view profile, std::uint64_t seed, std::uint64_t n) {
  return trace::generate_instr_trace(trace::profile_by_name(std::string(profile)), n,
                                     input_seed(seed, profile_salt(profile) ^ 0x1));
}

models::ModelSpec churn_arm(ModelKind kind) {
  return {.model = kind, .direction = DirectionKind::kSklCond,
          .rerand_difficulty_r = kChurnDifficulty};
}

tenant::ChurnConfig churn_config(std::uint64_t seed) {
  tenant::ChurnConfig cfg;
  cfg.tenants = kChurnTenants;
  cfg.service.shard_capacity = kChurnShardCapacity;
  cfg.storm_passes = kChurnStormPasses;
  cfg.max_branches = kReplayBranches;
  cfg.warmup_branches = kReplayWarmup;
  cfg.burst = kChurnBurst;
  cfg.hot_tenants = 64;
  cfg.invalidate_every = kChurnInvalidateEvery;
  cfg.seed = input_seed(seed, 0xC4u);
  return cfg;
}

Slice replay_slice(const Arm& arm, trace::VectorStream& stream) {
  const auto engine = models::make_engine({.model = arm.model, .direction = arm.direction});
  stream.reset();
  const auto t0 = Clock::now();
  const sim::BranchStats stats = models::replay_engine(
      *engine, stream,
      {.max_branches = kReplayBranches, .warmup_branches = kReplayWarmup});
  const auto t1 = Clock::now();
  Slice s;
  Digest d;
  digest_stats(d, stats);
  s.digest = d.value();
  s.work = static_cast<double>(kReplayWarmup + kReplayBranches);
  s.seconds = seconds_between(t0, t1);
  s.oae = stats.oae();
  return s;
}

Slice churn_slice(const models::ModelSpec& spec, const std::vector<bpu::BranchRecord>& base,
                  const tenant::ChurnConfig& cfg) {
  tenant::ChurnResult r;
  exp::for_each_engine(spec, [&](auto& engine) {
    const auto* mon = engine.monitor();
    r = tenant::run_churn(engine, base, cfg,
                          {mon != nullptr ? mon->config() : stbpu::core::MonitorConfig{}});
  });
  Slice s;
  Digest d;
  digest_stats(d, r.stats);
  digest_service(d, r.service);
  for (const std::uint64_t v : {r.table_size, r.branches_processed, r.storm_acquires,
                                r.failed_acquires, r.tenants_touched,
                                r.stm_rerandomizations, r.monitor_rerandomizations}) {
    d.add(v);
  }
  for (const double v : {r.misp_p50, r.misp_p99, r.probe_p50, r.probe_p99}) d.add(v);
  s.digest = d.value();
  s.work = static_cast<double>(r.branches_processed);
  s.seconds = r.churn_seconds;
  s.oae = r.stats.oae();
  s.probe_p99 = r.probe_p99;
  s.probe_samples = static_cast<double>(r.service.acquires - r.storm_acquires);
  s.ok = r.failed_acquires == 0;
  return s;
}

Slice ooo_slice(const models::ModelSpec& spec, const std::vector<InstrTracePtr>& traces,
                std::uint64_t warmup, std::uint64_t budget) {
  sim::OooResult r;
  double seconds = 0;
  exp::for_each_engine(spec, [&](auto& engine) {
    std::vector<std::unique_ptr<trace::InstrTraceStream>> streams;
    std::vector<trace::InstrStream*> ptrs;
    for (const InstrTracePtr& t : traces) {
      streams.push_back(std::make_unique<trace::InstrTraceStream>(t));
      ptrs.push_back(streams.back().get());
    }
    const auto t0 = Clock::now();
    r = sim::run_ooo({}, engine, ptrs, budget, warmup);
    seconds = seconds_between(t0, Clock::now());
  });
  Slice s;
  Digest d;
  digest_ooo(d, r);
  s.digest = d.value();
  for (const InstrTracePtr& t : traces) s.work += branches_in_prefix(*t, warmup + budget);
  s.seconds = seconds;
  s.oae = r.combined_stats().oae();
  s.ipc = r.ipc_harmonic_mean();
  return s;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "replay_steady") return std::make_unique<ReplaySteady>();
  if (name == "replay_churn") return std::make_unique<ReplayChurn>();
  if (name == "ooo_core") return std::make_unique<OooCore>();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"replay_steady", "replay_churn",
                                                 "ooo_core"};
  return names;
}

}  // namespace perfbench
