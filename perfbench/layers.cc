// The traced run's layer suite. Every layer's public calls are replayed on
// inputs captured from the benchmark workloads, one span around each batch
// of calls, and a layer's cost is its spans' self time divided by the
// operations inside them. Counts (hit rates, mispredict rates, MPKI, stall
// CPI, probe steps) are exact and repeat run to run.
//
// Reconciliation (unattributed_share, per workload) sets the independently
// timed layers against the end-to-end cost per branch or per instruction:
//   replay_steady  1 − (replay loop + precompute + the cell's direction
//                  predictor + its target-side mapping calls + BTB·taken)
//                  / replay, averaged over the 12 cells;
//   replay_churn   1 − (steady-state access + (acquire + release)/burst)
//                  / churn branch cost, averaged over the 2 cells;
//   ooo_core       1 − (fetch + cache·accesses + BPU access·branches)
//                  / run_ooo cost, on the STBPU-SKLCond single-thread
//                  cells; the remainder is reported as scheduling.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bpu/btb.h"
#include "bpu/mapping.h"
#include "core/monitor.h"
#include "core/remap.h"
#include "core/remap_cache.h"
#include "core/secret_token.h"
#include "exp/engine_visit.h"
#include "models/engine.h"
#include "perfbench.h"
#include "sim/cache.h"
#include "sim/ooo.h"
#include "tenant/churn.h"
#include "tenant/token_service.h"
#include "trace/batch.h"
#include "trace/generator.h"
#include "trace/pregen.h"
#include "trace/profile.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace bpu = stbpu::bpu;
namespace core = stbpu::core;
namespace exp = stbpu::exp;
namespace models = stbpu::models;
namespace sim = stbpu::sim;
namespace tenant = stbpu::tenant;
namespace trace = stbpu::trace;
using Records = std::vector<bpu::BranchRecord>;
using core::RemapCacheStats;

/// Records per span in the access/precompute loops: the SKLCond
/// precompute window, so one span holds one window's precompute.
constexpr std::size_t kWindow = 512;
/// Acquires (then releases) per span: below the 256 pid slots, so every
/// acquire in a batch finds a slot.
constexpr std::size_t kTenantBatch = 128;
constexpr unsigned kFetchWindow = 48;  ///< OoO frontend_depth × width

/// Defeats dead-code elimination of timed pure calls.
volatile std::uint64_t g_sink = 0;

/// Per-metric samples across suite iterations; reported as medians.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    auto [it, fresh] = samples_.try_emplace(name);
    if (fresh) {
      order_.push_back(name);
      units_[name] = unit;
    }
    it->second.push_back(v);
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0 : median(it->second);
  }
  void emit(std::vector<Metric>& out) const {
    for (const std::string& n : order_) {
      const auto& s = samples_.at(n);
      out.push_back({n, median(s), units_.at(n),
                     std::to_string(s.size()) + " suite iterations, median"});
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> units_;
  std::vector<std::string> order_;
};

/// Captured inputs of one suite iteration.
struct Inputs {
  Records replay[kReplayProfiles.size()];
  InstrTracePtr mcf, exchange2;
};

double ns(double seconds, double ops) { return ops > 0 ? seconds * 1e9 / ops : 0; }

std::string arm_of(ModelKind k) {
  switch (k) {
    case ModelKind::kUnprotected: return "unprotected";
    case ModelKind::kStbpu: return "STBPU";
    case ModelKind::kCibpu: return "CIBPU";
    case ModelKind::kXorIsolation: return "XOR_isolation";
    default: return "other";
  }
}

std::string dir_of(DirectionKind d) {
  switch (d) {
    case DirectionKind::kSklCond: return "SKLCond";
    case DirectionKind::kTage8: return "TAGE8";
    case DirectionKind::kTage64: return "TAGE64";
    case DirectionKind::kPerceptron: return "Perceptron";
  }
  return "other";
}

// --- trace ------------------------------------------------------------------

Inputs capture(std::uint64_t seed, Tracer& t, Report& rep) {
  Inputs in;
  const std::uint64_t n = kReplayWarmup + kReplayBranches;
  double branches = 0;
  for (std::size_t p = 0; p < kReplayProfiles.size(); ++p) {
    const std::string profile = kReplayProfiles[p];
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name(profile),
                                          input_seed(seed, profile_salt(profile)));
    trace::BranchBatch batch;
    batch.reserve(trace::kDefaultBatch);
    Records& out = in.replay[p];
    out.reserve(n);
    while (out.size() < n) {
      {
        ScopedSpan span(&t, "trace.gen");
        gen.next_batch(batch, std::min<std::size_t>(trace::kDefaultBatch, n - out.size()));
      }
      for (std::size_t i = 0; i < batch.size(); ++i) out.push_back(batch.record(i));
    }
    branches += static_cast<double>(out.size());
  }
  rep.add("trace.gen_ns_per_branch", "ns", ns(t.self_seconds("trace.gen"), branches));

  const std::uint64_t instrs = kOooWarmup + kOooBudget + kOooSlack;
  {
    ScopedSpan span(&t, "trace.instr_gen");
    in.mcf = ooo_trace("mcf", seed, instrs);
    in.exchange2 = ooo_trace("exchange2", seed, instrs);
  }
  rep.add("trace.instr_gen_ns_per_instr", "ns",
          ns(t.self_seconds("trace.instr_gen"), 2.0 * static_cast<double>(instrs)));
  return in;
}

// --- core: keyed mix and the memo cache --------------------------------------

void core_layer(const Inputs& in, std::uint64_t seed, Tracer& t, Report& rep) {
  // (ip, GHR) keys of the mcf conditionals, GHR as SKLCond keeps it.
  std::vector<std::uint64_t> lo, hi;
  std::uint64_t ghr = 0;
  for (const bpu::BranchRecord& r : in.replay[0]) {
    if (r.type != bpu::BranchType::kConditional) continue;
    lo.push_back(r.ip & bpu::kVirtualAddressMask);
    hi.push_back(ghr & 0xFFFF);
    ghr = (ghr << 1) | (r.taken ? 1 : 0);
  }
  lo.resize(lo.size() / 8 * 8);
  hi.resize(lo.size());
  const auto psi = static_cast<std::uint32_t>(input_seed(seed, 0x951));
  std::uint64_t acc = 0;
  {
    ScopedSpan span(&t, "core.mix");
    for (std::size_t i = 0; i < lo.size(); ++i) acc ^= core::Remapper::r4(psi, lo[i], hi[i]);
  }
  {
    ScopedSpan span(&t, "core.mix_batch");
    std::uint64_t out[8];
    for (std::size_t i = 0; i < lo.size(); i += 8) {
      core::detail::mix_batch_dispatch<8>(&lo[i], &hi[i], psi, core::Remapper::kTweakR4, out);
      for (const std::uint64_t o : out) acc ^= o;
    }
  }
  const double keys = static_cast<double>(lo.size());
  rep.add("core.mix_ns", "ns", ns(t.self_seconds("core.mix"), keys));
  rep.add("core.mix_batch_ns_per_key", "ns", ns(t.self_seconds("core.mix_batch"), keys));

  // Memo cache: a resident hot set (hits) and never-seen addresses (misses),
  // each call classified by the cache's own counters.
  core::STManager stm(input_seed(seed, 0x5A));
  core::CachedStbpuMapping memo(&stm);
  const bpu::ExecContext ctx{.pid = 1, .hart = 0, .kernel = false};
  std::vector<std::uint64_t> hot(lo.begin(), lo.begin() + std::min<std::size_t>(lo.size(), 512));
  for (const std::uint64_t ip : hot) acc ^= memo.btb_mode1(ip, ctx).set;
  RemapCacheStats before = memo.stats();
  {
    ScopedSpan span(&t, "core.memo_hit");
    for (int rep_i = 0; rep_i < 64; ++rep_i) {
      for (const std::uint64_t ip : hot) acc ^= memo.btb_mode1(ip, ctx).set;
    }
  }
  const double hits = static_cast<double>(memo.stats().fn_hits[RemapCacheStats::kR1] -
                                          before.fn_hits[RemapCacheStats::kR1]);
  const double hot_calls = 64.0 * static_cast<double>(hot.size());
  before = memo.stats();
  const std::uint64_t fresh_base = 0x7F0000000000ULL + (seed % 1024) * 0x100000000ULL;
  const std::size_t fresh = 32768;
  {
    ScopedSpan span(&t, "core.memo_miss");
    for (std::size_t i = 0; i < fresh; ++i) {
      acc ^= memo.btb_mode1(fresh_base + i * 4, ctx).set;
    }
  }
  const double misses = static_cast<double>(memo.stats().fn_misses[RemapCacheStats::kR1] -
                                            before.fn_misses[RemapCacheStats::kR1]);
  // A call of the hot pass that missed (slot conflict) is charged the
  // measured miss cost; the rest of the span is hit time.
  const double miss_ns = ns(t.self_seconds("core.memo_miss"), misses);
  const double hit_seconds = t.self_seconds("core.memo_hit") - (hot_calls - hits) * miss_ns * 1e-9;
  rep.add("core.memo_hit_ns", "ns", ns(std::max(hit_seconds, 0.0), hits));
  rep.add("core.memo_miss_ns", "ns", miss_ns);
  g_sink = acc;
}

// --- bpu: mapping, direction, BTB ---------------------------------------------

/// One conditional branch's mapping calls: BTB mode-1 index, both PHT
/// indexes and the target codec round trip.
template <class Mapping>
std::uint64_t mapping_bundle(const Mapping& m, const Records& recs,
                             const std::vector<std::uint64_t>& ghrs) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const bpu::BranchRecord& r = recs[i];
    const bpu::BtbIndex idx = m.btb_mode1(r.ip, r.ctx);
    acc ^= idx.set ^ idx.tag;
    acc ^= m.pht_index_1level(r.ip, r.ctx);
    acc ^= m.pht_index_2level(r.ip, ghrs[i], r.ctx);
    const std::uint64_t stored = m.encode_target(r.target, r.ctx);
    acc ^= m.decode_target(r.ip, stored, r.ctx);
  }
  return acc;
}

/// The engine's direction predictor alone: predict + update every
/// conditional (history tracking for the rest), one span per window.
/// Engines with batch precompute warm each window first, outside the span,
/// as the access loop does.
template <class Engine>
void direction_pass(Engine& engine, const Records& recs, Tracer& t, const std::string& name) {
  constexpr std::size_t kChunk = Engine::kBatchPrecompute ? Engine::kPrecomputeWindow : kWindow;
  auto& dir = engine.core().direction();
  std::uint64_t acc = 0;
  for (std::size_t at = 0; at < recs.size(); at += kChunk) {
    const std::size_t end = std::min(recs.size(), at + kChunk);
    if constexpr (Engine::kBatchPrecompute) {
      engine.precompute_records(std::span<const bpu::BranchRecord>(recs.data() + at, end - at));
    }
    ScopedSpan span(&t, name);
    for (std::size_t i = at; i < end; ++i) {
      const bpu::BranchRecord& r = recs[i];
      if (r.type == bpu::BranchType::kConditional) {
        const bpu::DirPrediction p = dir.predict(r.ip, r.ctx);
        acc += p.taken ? 1 : 0;
        dir.update(r.ip, r.ctx, r.taken, p);
      } else {
        dir.track(r);
      }
    }
  }
  g_sink = acc;
}

/// The target side's mapping calls for every taken branch: BTB mode-1
/// index and the codec round trip.
template <class Mapping>
void target_map_pass(const Mapping& m, const Records& recs, Tracer& t,
                     const std::string& name) {
  std::uint64_t acc = 0;
  for (std::size_t at = 0; at < recs.size(); at += kWindow) {
    const std::size_t end = std::min(recs.size(), at + kWindow);
    ScopedSpan span(&t, name);
    for (std::size_t i = at; i < end; ++i) {
      const bpu::BranchRecord& r = recs[i];
      if (!r.taken) continue;
      const bpu::BtbIndex idx = m.btb_mode1(r.ip, r.ctx);
      acc ^= idx.set ^ idx.tag;
      acc ^= m.decode_target(r.ip, m.encode_target(r.target, r.ctx), r.ctx);
    }
  }
  g_sink = acc;
}

void bpu_layer(const Inputs& in, Tracer& t, Report& rep) {
  // Conditionals of the mcf capture with the 16-bit GHR they see.
  Records conds;
  std::vector<std::uint64_t> ghrs;
  std::uint64_t ghr = 0;
  for (const bpu::BranchRecord& r : in.replay[0]) {
    if (r.type != bpu::BranchType::kConditional) continue;
    conds.push_back(r);
    ghrs.push_back(ghr & 0xFFFF);
    ghr = (ghr << 1) | (r.taken ? 1 : 0);
  }
  for (const ModelKind kind : {ModelKind::kUnprotected, ModelKind::kStbpu, ModelKind::kCibpu,
                               ModelKind::kXorIsolation}) {
    const std::string name = "bpu.mapping." + arm_of(kind);
    exp::for_each_engine({.model = kind, .direction = DirectionKind::kSklCond},
                         [&](auto& engine) {
                           const auto& m = engine.mapping();
                           g_sink = mapping_bundle(m, conds, ghrs);  // warm memo caches
                           ScopedSpan span(&t, name);
                           g_sink = mapping_bundle(m, conds, ghrs);
                         });
    rep.add("bpu.mapping_ns." + arm_of(kind), "ns",
            ns(t.self_seconds(name), static_cast<double>(conds.size())));
  }

  for (const DirectionKind d : {DirectionKind::kSklCond, DirectionKind::kTage8,
                                DirectionKind::kTage64, DirectionKind::kPerceptron}) {
    const std::string name = "bpu.direction." + dir_of(d);
    exp::for_each_engine({.model = ModelKind::kUnprotected, .direction = d}, [&](auto& engine) {
      direction_pass(engine, in.replay[0], t, name);
    });
    rep.add("bpu.direction_ns." + dir_of(d), "ns",
            ns(t.self_seconds(name), static_cast<double>(conds.size())));
  }

  // BTB lookup + insert for every taken branch, baseline indexes.
  const bpu::BaselineMappingLogic base;
  std::vector<bpu::BtbIndex> idx;
  std::vector<const bpu::BranchRecord*> taken;
  for (const bpu::BranchRecord& r : in.replay[0]) {
    if (!r.taken) continue;
    idx.push_back(base.btb_mode1(r.ip, r.ctx));
    taken.push_back(&r);
  }
  bpu::BranchTargetBuffer btb;
  std::uint64_t acc = 0;
  for (std::size_t at = 0; at < idx.size(); at += kWindow) {
    const std::size_t end = std::min(idx.size(), at + kWindow);
    ScopedSpan span(&t, "bpu.btb");
    for (std::size_t i = at; i < end; ++i) {
      const auto hart = taken[i]->ctx.hart;
      acc ^= btb.lookup(idx[i], hart).payload;
      acc ^= btb.insert(idx[i], taken[i]->target, hart).evicted ? 1 : 0;
    }
  }
  g_sink = acc;
  rep.add("bpu.btb_ns", "ns", ns(t.self_seconds("bpu.btb"), static_cast<double>(idx.size())));
}

// --- replay cells: access, precompute, replay loop, and their counts ----------

/// Counts of the STBPU replay cells, over every simulated branch (warm-up
/// included, as the memo cache and token counters see them).
struct ReplayCounts {
  RemapCacheStats memo;
  double rekeys = 0;
  double branches = 0;
};

void add_memo(RemapCacheStats& into, const RemapCacheStats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.batch_fills += s.batch_fills;
  for (unsigned f = 0; f < RemapCacheStats::kFnCount; ++f) {
    into.fn_hits[f] += s.fn_hits[f];
    into.fn_misses[f] += s.fn_misses[f];
  }
}

void memo_rates(Report& rep, const std::string& prefix, const RemapCacheStats& m,
                std::initializer_list<std::pair<const char*, unsigned>> fns) {
  for (const auto& [label, f] : fns) {
    const double total = static_cast<double>(m.fn_hits[f] + m.fn_misses[f]);
    rep.add(prefix + label, "fraction",
            total > 0 ? static_cast<double>(m.fn_hits[f]) / total : 0);
  }
}

/// Per-cell replay results, for the reconciliation: the cell's own
/// direction predictor (with the mapping calls it makes) and target-side
/// mapping calls, each timed on a fresh engine of the cell's type.
struct ReplayCell {
  Arm arm;
  double replay_ns = 0, access_ns = 0, precompute_ns = 0;
  double direction_ns = 0, target_map_ns = 0;
  double taken_frac = 0;
};

std::vector<ReplayCell> replay_layer(const Inputs& in, Tracer& t, Report& rep,
                                     ReplayCounts& stbpu_counts) {
  std::vector<ReplayCell> cells;
  std::map<std::string, sim::BranchStats> per_arm;
  sim::BranchStats all;
  for (std::size_t p = 0; p < kReplayProfiles.size(); ++p) {
    const Records& recs = in.replay[p];
    trace::VectorStream stream(recs);
    double taken = 0;
    for (const bpu::BranchRecord& r : recs) taken += r.taken ? 1 : 0;
    const double n = static_cast<double>(recs.size());
    for (const Arm& arm : kReplayArms) {
      const std::string cell = arm.name;
      const std::string access = "bpu.access." + cell;
      const std::string pre = "models.precompute." + cell;
      const std::string replay = "sim.replay." + cell;
      const double access0 = t.self_seconds(access), pre0 = t.self_seconds(pre);
      const double replay0 = t.self_seconds(replay);
      const models::ModelSpec spec{.model = arm.model, .direction = arm.direction};
      // A throwaway engine first faults in the pages every later engine of
      // this type reuses, so no pass below pays first-touch cost.
      exp::for_each_engine(spec, [](auto&) {});
      // The access loop mirrors replay_engine's walk (precompute one window,
      // then access it) without its context-switch calls and statistics.
      exp::for_each_engine(spec, [&](auto& engine) {
        using E = std::remove_reference_t<decltype(engine)>;
        constexpr std::size_t kChunk = E::kBatchPrecompute ? E::kPrecomputeWindow : kWindow;
        std::uint64_t acc = 0;
        for (std::size_t at = 0; at < recs.size(); at += kChunk) {
          const std::size_t c = std::min(kChunk, recs.size() - at);
          if constexpr (E::kBatchPrecompute) {
            ScopedSpan span(&t, pre);
            engine.precompute_records(std::span<const bpu::BranchRecord>(recs.data() + at, c));
          }
          ScopedSpan span(&t, access);
          for (std::size_t i = at; i < at + c; ++i) acc += engine.access(recs[i]).overall_correct;
        }
        g_sink = acc;
      });
      exp::for_each_engine(spec, [&](auto& engine) {
        stream.reset();
        sim::BranchStats s;
        {
          ScopedSpan span(&t, replay);
          s = models::replay_engine(engine, stream,
                                    {.max_branches = kReplayBranches,
                                     .warmup_branches = kReplayWarmup});
        }
        per_arm[cell] += s;
        all += s;
        if constexpr (bpu::StatsReporting<std::remove_cvref_t<decltype(engine.mapping())>>) {
          stbpu_counts.branches += n;
          add_memo(stbpu_counts.memo, engine.mapping().stats());
          stbpu_counts.rekeys += static_cast<double>(engine.tokens()->rerandomizations());
        }
      });
      const std::string dir = "recon.direction." + cell;
      const std::string tgt = "recon.target_map." + cell;
      const double dir0 = t.self_seconds(dir), tgt0 = t.self_seconds(tgt);
      exp::for_each_engine(spec, [&](auto& engine) {
        direction_pass(engine, recs, t, dir);
      });
      exp::for_each_engine(spec,
                           [&](auto& engine) { target_map_pass(engine.mapping(), recs, t, tgt); });
      ReplayCell rc{arm};
      rc.replay_ns = ns(t.self_seconds(replay) - replay0, n);
      rc.access_ns = ns(t.self_seconds(access) - access0, n);
      rc.precompute_ns = ns(t.self_seconds(pre) - pre0, n);
      rc.direction_ns = ns(t.self_seconds(dir) - dir0, n);
      rc.target_map_ns = ns(t.self_seconds(tgt) - tgt0, n);
      rc.taken_frac = taken / n;
      cells.push_back(rc);
    }
  }
  const double total = 2.0 * static_cast<double>(kReplayWarmup + kReplayBranches);
  double loop_ns = 0;
  for (const Arm& arm : kReplayArms) {
    const std::string cell = arm.name;
    rep.add("bpu.access_ns." + cell, "ns", ns(t.self_seconds("bpu.access." + cell), total));
  }
  for (const Arm& arm : kReplayArms) {
    const sim::BranchStats& s = per_arm[arm.name];
    rep.add(std::string("bpu.mispredict_rate.") + arm.name, "fraction",
            static_cast<double>(s.mispredictions) / static_cast<double>(s.branches));
  }
  for (const char* cell : {"STBPU-SKLCond", "STBPU-TAGE8"}) {
    rep.add(std::string("models.precompute_ns_per_branch.") + cell, "ns",
            ns(t.self_seconds(std::string("models.precompute.") + cell), total));
  }
  for (const ReplayCell& c : cells) loop_ns += c.replay_ns - c.access_ns - c.precompute_ns;
  rep.add("sim.replay_loop_ns", "ns", loop_ns / static_cast<double>(cells.size()));
  rep.add("bpu.btb_evictions_per_kbranch", "per_kbranch",
          1e3 * static_cast<double>(all.btb_evictions) / static_cast<double>(all.branches));
  return cells;
}

// --- sim: the cycle-level core ------------------------------------------------

struct OooCosts {
  double ooo_ns = 0;  ///< STBPU-SKLCond single-thread, per instruction
  double fetch_ns = 0, cache_ns_per_instr = 0, bpu_ns_per_instr = 0;
};

OooCosts ooo_layer(const Inputs& in, Tracer& t, Report& rep) {
  const std::uint64_t per_thread = kOooWarmup + kOooBudget;
  const std::vector<InstrTracePtr> singles = {in.mcf, in.exchange2};
  sim::OooResult sklcond[2];
  for (const Arm& arm : kOooArms) {
    const std::string name = std::string("sim.ooo.") + arm.name;
    for (std::size_t p = 0; p < singles.size(); ++p) {
      exp::for_each_engine({.model = arm.model, .direction = arm.direction}, [&](auto& engine) {
        trace::InstrTraceStream s(singles[p]);
        ScopedSpan span(&t, name);
        const sim::OooResult r = sim::run_ooo({}, engine, {&s}, kOooBudget, kOooWarmup);
        if (arm.model == ModelKind::kStbpu && arm.direction == DirectionKind::kSklCond) {
          sklcond[p] = r;
        }
      });
    }
    rep.add(std::string("sim.ooo_ns_per_instr.") + arm.name, "ns",
            ns(t.self_seconds(name), 2.0 * static_cast<double>(per_thread)));
  }
  exp::for_each_engine({.model = ModelKind::kStbpu, .direction = DirectionKind::kSklCond},
                       [&](auto& engine) {
                         trace::InstrTraceStream s0(in.mcf), s1(in.exchange2);
                         ScopedSpan span(&t, "sim.ooo.STBPU-SKLCond-SMT");
                         (void)sim::run_ooo({}, engine, {&s0, &s1}, kOooBudget, kOooWarmup);
                       });
  rep.add("sim.ooo_ns_per_instr.STBPU-SKLCond-SMT", "ns",
          ns(t.self_seconds("sim.ooo.STBPU-SKLCond-SMT"), 2.0 * static_cast<double>(per_thread)));

  // Fetch: the lookahead window's zero-copy borrow over each trace.
  double instrs = 0, accesses = 0;
  std::uint64_t acc = 0;
  for (const InstrTracePtr& tr : singles) {
    trace::InstrTraceStream s(tr);
    std::size_t start = 0, n = 0;
    std::uint64_t left = per_thread;
    ScopedSpan span(&t, "sim.fetch");
    while (left > 0) {
      const trace::InstrBlock* b = s.borrow_block(std::min<std::uint64_t>(kFetchWindow, left),
                                                  start, n);
      if (b == nullptr) break;
      for (std::size_t i = start; i < start + n; ++i) acc += b->kind[i] + b->mem_addr[i];
      left -= n;
    }
  }
  // Cache: the hierarchy on each trace's load/store address stream.
  for (const InstrTracePtr& tr : singles) {
    const trace::InstrBlock& b = tr->block;
    sim::CacheHierarchy caches;
    const std::size_t n = std::min<std::size_t>(per_thread, b.size());
    instrs += static_cast<double>(n);
    using Kind = trace::InstrRecord::Kind;
    for (std::size_t at = 0; at < n; at += 4096) {
      ScopedSpan span(&t, "sim.cache");
      for (std::size_t i = at; i < std::min(n, at + 4096); ++i) {
        const auto k = static_cast<Kind>(b.kind[i]);
        if (k != Kind::kLoad && k != Kind::kStore) continue;
        acc += caches.load_latency(b.mem_addr[i], b.streaming[i] != 0);
        accesses += 1;
      }
    }
  }
  // BPU: the STBPU-SKLCond access loop on the traces' own branches.
  for (const InstrTracePtr& tr : singles) {
    const trace::InstrBlock& b = tr->block;
    const std::size_t nb = b.branch_before[std::min<std::size_t>(per_thread, b.size())];
    exp::for_each_engine({.model = ModelKind::kStbpu, .direction = DirectionKind::kSklCond},
                         [&](auto& engine) {
                           for (std::size_t at = 0; at < nb; at += kWindow) {
                             ScopedSpan span(&t, "sim.ooo_bpu");
                             for (std::size_t i = at; i < std::min(nb, at + kWindow); ++i) {
                               acc += engine.access(b.branches[i]).overall_correct;
                             }
                           }
                         });
  }
  g_sink = acc;

  OooCosts c;
  c.ooo_ns = ns(t.self_seconds("sim.ooo.STBPU-SKLCond"), instrs);
  c.fetch_ns = ns(t.self_seconds("sim.fetch"), instrs);
  const double cache_ns = ns(t.self_seconds("sim.cache"), accesses);
  c.cache_ns_per_instr = cache_ns * accesses / instrs;
  c.bpu_ns_per_instr = ns(t.self_seconds("sim.ooo_bpu"), instrs);
  rep.add("sim.fetch_ns_per_instr", "ns", c.fetch_ns);
  rep.add("sim.cache_ns_per_access", "ns", cache_ns);
  rep.add("sim.schedule_ns_per_instr", "ns",
          c.ooo_ns - c.fetch_ns - c.cache_ns_per_instr - c.bpu_ns_per_instr);

  // Counts of the STBPU-SKLCond single-thread cells.
  double measured = 0, simulated = 0;
  sim::CacheHierarchyCounters cc;
  sim::OooThreadStalls st;
  for (const sim::OooResult& r : sklcond) {
    measured += static_cast<double>(r.instructions[0]);
    simulated += static_cast<double>(per_thread);
    cc.l1d_misses += r.cache.l1d_misses;
    cc.l2_misses += r.cache.l2_misses;
    cc.llc_misses += r.cache.llc_misses;
    st.redirect += r.stalls[0].redirect;
    st.fetch_bandwidth += r.stalls[0].fetch_bandwidth;
    st.rob += r.stalls[0].rob;
    st.iq += r.stalls[0].iq;
    st.lq += r.stalls[0].lq;
    st.sq += r.stalls[0].sq;
  }
  rep.add("sim.l1d_mpki", "mpki", 1e3 * static_cast<double>(cc.l1d_misses) / simulated);
  rep.add("sim.l2_mpki", "mpki", 1e3 * static_cast<double>(cc.l2_misses) / simulated);
  rep.add("sim.llc_mpki", "mpki", 1e3 * static_cast<double>(cc.llc_misses) / simulated);
  for (const auto& [label, v] : {std::pair{"redirect", st.redirect},
                                 {"fetch_bandwidth", st.fetch_bandwidth},
                                 {"rob", st.rob},
                                 {"iq", st.iq},
                                 {"lq", st.lq},
                                 {"sq", st.sq}}) {
    rep.add(std::string("sim.stall_cpi.") + label, "cycles/instr", v / measured);
  }
  return c;
}

// --- tenant: the token service and the churn cells ----------------------------

struct ChurnCosts {
  double churn_ns[std::size(kChurnArms)] = {};
  double acquire_ns = 0, release_ns = 0;
};

ChurnCosts tenant_layer(const Inputs& in, std::uint64_t seed, Tracer& t, Report& rep) {
  ChurnCosts c;
  const tenant::ChurnConfig cfg = churn_config(seed);
  const core::MonitorConfig mon_cfg = core::MonitorConfig::from_difficulty(kChurnDifficulty, false);
  tenant::TokenService svc(cfg.service, {mon_cfg});
  core::STManager stm(input_seed(seed, 0x7E));
  core::EventMonitor mon(&stm, mon_cfg);
  for (std::uint64_t id = 1; id <= kChurnTenants; ++id) (void)svc.register_tenant(id);
  std::uint64_t failures = 0, ops = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t first = 1; first <= kChurnTenants; first += kTenantBatch) {
      const std::uint64_t last = std::min<std::uint64_t>(kChurnTenants, first + kTenantBatch - 1);
      {
        ScopedSpan span(&t, "tenant.acquire");
        for (std::uint64_t id = first; id <= last; ++id) {
          failures += svc.acquire(id, stm, &mon).status != tenant::AcquireStatus::kOk;
        }
      }
      {
        ScopedSpan span(&t, "tenant.release");
        for (std::uint64_t id = first; id <= last; ++id) svc.release(id);
      }
      ops += last - first + 1;
    }
  }
  constexpr int kInvalidateRounds = 256;
  {
    ScopedSpan span(&t, "tenant.invalidate_shard");
    for (int r = 0; r < kInvalidateRounds; ++r) {
      for (std::uint32_t s = 0; s < svc.shard_count(); ++s) svc.invalidate_shard(s);
    }
  }
  c.acquire_ns = ns(t.self_seconds("tenant.acquire"), static_cast<double>(ops));
  c.release_ns = ns(t.self_seconds("tenant.release"), static_cast<double>(ops));
  rep.add("tenant.acquire_ns", "ns", c.acquire_ns);
  rep.add("tenant.release_ns", "ns", c.release_ns);
  rep.add("tenant.invalidate_shard_ns", "ns",
          ns(t.self_seconds("tenant.invalidate_shard"),
             static_cast<double>(kInvalidateRounds) * svc.shard_count()));
  if (failures != 0) std::fprintf(stderr, "tenant layer: %llu acquires failed\n",
                                  static_cast<unsigned long long>(failures));

  // The replay_churn cells, for their counts and branch cost.
  tenant::ServiceStats svc_stats;
  RemapCacheStats memo;
  double rekeys = 0, branches = 0;
  for (std::size_t a = 0; a < std::size(kChurnArms); ++a) {
    const std::string name = std::string("sim.churn.") + kChurnArms[a].second;
    exp::for_each_engine(churn_arm(kChurnArms[a].first), [&](auto& engine) {
      tenant::ChurnResult r;
      {
        ScopedSpan span(&t, name);
        const auto* m = engine.monitor();
        r = tenant::run_churn(engine, in.replay[0], cfg, {m != nullptr ? m->config() : mon_cfg});
      }
      c.churn_ns[a] = ns(r.churn_seconds, static_cast<double>(r.branches_processed));
      if (a == 0) svc_stats = r.service;
      rekeys += static_cast<double>(r.stm_rerandomizations);
      branches += static_cast<double>(r.branches_processed);
      if constexpr (bpu::StatsReporting<std::remove_cvref_t<decltype(engine.mapping())>>) {
        add_memo(memo, engine.mapping().stats());
      }
    });
  }
  rep.add("tenant.probe_steps_per_acquire", "probe_steps",
          static_cast<double>(svc_stats.probe_steps) / static_cast<double>(svc_stats.lookups));
  rep.add("tenant.slot_recycles_per_kacquire", "per_kacquire",
          1e3 * static_cast<double>(svc_stats.slot_recycles) /
              static_cast<double>(svc_stats.acquires));
  rep.add("tenant.evictions", "count", static_cast<double>(svc_stats.evictions));
  memo_rates(rep, "core.memo_hit_rate.churn.",
             memo, {{"r1", RemapCacheStats::kR1}, {"r34", RemapCacheStats::kR34}});
  rep.add("core.mix_per_branch.churn", "mixes/branch",
          static_cast<double>(memo.misses + memo.batch_fills) / branches);
  rep.add("core.rekeys_per_mbranch.churn", "per_mbranch", 1e6 * rekeys / branches);
  return c;
}

void suite_once(const Options& opt, Tracer& t, Report& rep) {
  const Inputs in = capture(opt.seed, t, rep);
  core_layer(in, opt.seed, t, rep);
  bpu_layer(in, t, rep);
  ReplayCounts counts;
  const std::vector<ReplayCell> cells = replay_layer(in, t, rep, counts);
  memo_rates(rep, "core.memo_hit_rate.", counts.memo,
             {{"r1", RemapCacheStats::kR1},
              {"r34", RemapCacheStats::kR34},
              {"rt_index", RemapCacheStats::kRtIndex},
              {"rt_tag", RemapCacheStats::kRtTag},
              {"rp", RemapCacheStats::kRp}});
  rep.add("core.mix_per_branch", "mixes/branch",
          static_cast<double>(counts.memo.misses + counts.memo.batch_fills) / counts.branches);
  rep.add("core.rekeys_per_mbranch", "per_mbranch", 1e6 * counts.rekeys / counts.branches);
  const OooCosts ooo = ooo_layer(in, t, rep);
  const ChurnCosts churn = tenant_layer(in, opt.seed, t, rep);

  double share = 0;
  if (opt.workload == "replay_steady") {
    for (const ReplayCell& c : cells) {
      const double loop = c.replay_ns - c.access_ns - c.precompute_ns;
      const double layers = loop + c.precompute_ns + c.direction_ns + c.target_map_ns +
                            rep.get("bpu.btb_ns") * c.taken_frac;
      share += (1.0 - layers / c.replay_ns) / static_cast<double>(cells.size());
    }
  } else if (opt.workload == "replay_churn") {
    const double service = (churn.acquire_ns + churn.release_ns) / kChurnBurst;
    for (std::size_t a = 0; a < std::size(kChurnArms); ++a) {
      const double access = rep.get(std::string("bpu.access_ns.") + kChurnArms[a].second);
      share += (1.0 - (access + service) / churn.churn_ns[a]) /
               static_cast<double>(std::size(kChurnArms));
    }
  } else {
    share = 1.0 - (ooo.fetch_ns + ooo.cache_ns_per_instr + ooo.bpu_ns_per_instr) / ooo.ooo_ns;
  }
  rep.add("unattributed_share", "fraction", share);
}

}  // namespace

void run_layers(const Options& opt, Tracer& tracer, double budget_seconds,
                std::vector<Metric>& out) {
  Report rep;
  const auto start = Clock::now();
  std::uint32_t iteration = 0;
  do {
    // Each iteration's layer costs come from its own spans only.
    Tracer local;
    local.set_run(iteration);
    suite_once(opt, local, rep);
    tracer.absorb(local);
    ++iteration;
  } while (seconds_between(start, Clock::now()) < budget_seconds);
  rep.emit(out);
}

}  // namespace perfbench
