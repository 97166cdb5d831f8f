// Cycle-level (OoO) scenarios: Figures 4-6 and the engine-typed fan-out
// study. Every simulated point goes through exp::for_each_engine — the
// concrete EngineT<Mapping, Direction> is recovered once per run and
// sim::run_ooo instantiates the cycle-level core on it, so the per-branch
// access()/on_switch() path is fully devirtualized (the trace-replay
// equivalent of models::replay_engine).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "core/monitor.h"
#include "exp/engine_visit.h"
#include "exp/scenarios_internal.h"
#include "exp/timing.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/pregen.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu::exp {

namespace {

// ---------------------------------------------------------------------------
// Instruction sources. Every cycle-level point replays a deterministic
// (profile, seed) instruction stream; at CI/quick scales the stream is a
// pregenerated whole-run SoA artifact shared across arms, repetitions and
// sweep points (trace::shared_instr_trace — generated once per process),
// which the cores consume zero-copy through their fetch windows. Very
// large budgets fall back to on-the-fly generation (a paper-scale 100M
// instruction artifact would be several GB); records are bit-identical
// either way, so the fallback changes wall-clock only.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPregenMaxInstrs = 4'000'000;

std::uint64_t pregen_instr_count(const ExperimentSpec& spec) {
  // Upper bound on per-thread consumption: warm-up + measured budget plus
  // the fetch window's prefetch slack (frontend_depth × width, far
  // below 4096 for any config used here). The cores stop at their budgets,
  // so a stream at least this long is indistinguishable from an infinite
  // generator.
  return spec.scale.ooo_warmup + spec.scale.ooo_instructions + 4096;
}

bool pregen_enabled(const ExperimentSpec& spec) {
  return pregen_instr_count(spec) <= kPregenMaxInstrs;
}

/// Hand `fn` an InstrStream positioned at the start of `profile`'s stream:
/// a fresh cursor over the shared pregenerated artifact when the budget
/// fits the pregen cap, a fresh generator otherwise.
template <class Fn>
void with_instr_stream(const ExperimentSpec& spec, const trace::WorkloadProfile& profile,
                       Fn&& fn) {
  if (pregen_enabled(spec)) {
    trace::InstrTraceStream stream(
        trace::shared_instr_trace(profile, pregen_instr_count(spec)));
    fn(stream);
  } else {
    trace::SyntheticInstrGenerator gen(profile);
    fn(gen);
  }
}

constexpr models::DirectionKind kDirs[] = {
    models::DirectionKind::kPerceptron, models::DirectionKind::kSklCond,
    models::DirectionKind::kTage64, models::DirectionKind::kTage8};
constexpr const char* kDirNames[] = {"PerceptronBP", "SKLCond", "TAGE_SC_L_64KB",
                                     "TAGE_SC_L_8KB"};

models::ModelSpec with_seed(models::ModelSpec mspec, const ExperimentSpec& spec) {
  return apply_spec_overrides(mspec, spec);
}

// The defense arms of the rival study (§VII plus the CIBPU / XOR-isolation
// rivals from the registry). STBPU stays arm 0 so every cell's legacy
// unsuffixed fields keep their values; rival arms add `<kind>_`-prefixed
// copies of the same fields alongside them.
constexpr models::ModelKind kDefenseArms[] = {models::ModelKind::kStbpu,
                                              models::ModelKind::kCibpu,
                                              models::ModelKind::kXorIsolation};
constexpr std::size_t kNumDefenseArms = sizeof(kDefenseArms) / sizeof(kDefenseArms[0]);

/// Per-arm cell result: {dir reduction, tgt reduction, norm IPC} relative
/// to the unprotected run.
struct OooCell {
  double dred = 0.0, tred = 0.0, nipc = 0.0;
};

/// One figure cell across every defense arm (shared unprotected baseline).
struct MultiArmCell {
  OooCell arm[kNumDefenseArms];
};

/// `<kind>_` field prefix for defense arm `a` (empty for STBPU, whose
/// fields keep the legacy unsuffixed names).
std::string arm_prefix(std::size_t a) {
  return a == 0 ? std::string{} : models::to_string(kDefenseArms[a]) + "_";
}

/// Single-workload cell: one unprotected cycle-level run plus one per
/// defense arm, all on the concrete engine type.
MultiArmCell run_single_cell(const ExperimentSpec& spec,
                             const trace::WorkloadProfile& profile,
                             models::DirectionKind dir) {
  double dirr = 0, tgt = 0, ipc = 0;
  const auto measure = [&](models::ModelKind kind) {
    const auto mspec = with_seed({.model = kind, .direction = dir}, spec);
    for_each_engine(mspec, [&](auto& engine) {
      with_instr_stream(spec, profile, [&](trace::InstrStream& stream) {
        const auto r = sim::run_ooo({}, engine, {&stream}, spec.scale.ooo_instructions,
                                    spec.scale.ooo_warmup);
        dirr = r.branch_stats[0].direction_rate();
        tgt = r.branch_stats[0].target_rate();
        ipc = r.ipc[0];
      });
    });
  };
  measure(models::ModelKind::kUnprotected);
  const double base_dir = dirr, base_tgt = tgt, base_ipc = ipc;
  MultiArmCell out;
  for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
    measure(kDefenseArms[a]);
    out.arm[a] = {.dred = base_dir - dirr,
                  .tred = base_tgt - tgt,
                  .nipc = base_ipc > 0 ? ipc / base_ipc : 0.0};
  }
  return out;
}

/// SMT-pair cell (two workloads sharing one BPU), same engine-typed path.
MultiArmCell run_smt_cell(const ExperimentSpec& spec, const trace::WorkloadProfile& p0,
                          const trace::WorkloadProfile& p1, models::DirectionKind dir) {
  double dirr = 0, tgt = 0, hipc = 0;
  const auto measure = [&](models::ModelKind kind) {
    const auto mspec = with_seed({.model = kind, .direction = dir}, spec);
    for_each_engine(mspec, [&](auto& engine) {
      with_instr_stream(spec, p0, [&](trace::InstrStream& s0) {
        with_instr_stream(spec, p1, [&](trace::InstrStream& s1) {
          const auto r = sim::run_ooo({}, engine, {&s0, &s1},
                                      spec.scale.ooo_instructions, spec.scale.ooo_warmup);
          const auto combined = r.combined_stats();
          dirr = combined.direction_rate();
          tgt = combined.target_rate();
          hipc = r.ipc_harmonic_mean();
        });
      });
    });
  };
  measure(models::ModelKind::kUnprotected);
  const double base_dir = dirr, base_tgt = tgt, base_ipc = hipc;
  MultiArmCell out;
  for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
    measure(kDefenseArms[a]);
    out.arm[a] = {.dred = base_dir - dirr,
                  .tred = base_tgt - tgt,
                  .nipc = base_ipc > 0 ? hipc / base_ipc : 0.0};
  }
  return out;
}

/// Emit a three-way cell's fields: unsuffixed STBPU values first (legacy
/// schema, value-stable under the compare gate), then the rivals'
/// prefixed copies.
void set_cell_fields(PointResult& p, const MultiArmCell& c, const char* ipc_field) {
  for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
    const std::string prefix = arm_prefix(a);
    p.set(prefix + "direction_reduction", c.arm[a].dred)
        .set(prefix + "target_reduction", c.arm[a].tred)
        .set(prefix + ipc_field, c.arm[a].nipc);
  }
}

// ---------------------------------------------------------------------------
// fig4_single — single-workload evaluation + engine throughput section.
// ---------------------------------------------------------------------------

constexpr models::ModelKind kThroughputModels[] = {
    models::ModelKind::kUnprotected, models::ModelKind::kStbpu,
    models::ModelKind::kStbpu,       models::ModelKind::kStbpu,
    models::ModelKind::kCibpu,       models::ModelKind::kXorIsolation};
constexpr models::DirectionKind kThroughputDirs[] = {
    models::DirectionKind::kSklCond,    models::DirectionKind::kSklCond,
    models::DirectionKind::kPerceptron, models::DirectionKind::kTage8,
    models::DirectionKind::kSklCond,    models::DirectionKind::kSklCond};
constexpr std::size_t kNumThroughput = 6;

class Fig4Scenario final : public ScenarioBase {
 public:
  Fig4Scenario()
      : ScenarioBase("fig4_single",
                     "Figure 4: single-workload gem5-style evaluation "
                     "(Table IV config)") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (std::size_t t = 0; t < kNumThroughput; ++t) {
      labels.push_back("throughput/" + models::to_string(kThroughputModels[t]) + "/" +
                       models::to_string(kThroughputDirs[t]));
    }
    for (const auto& profile : trace::figure4_profiles()) {
      for (const char* d : kDirNames) labels.push_back(profile.name + "/" + d);
    }
    return labels;
  }

  bool timing_sensitive(const ExperimentSpec&, std::size_t index) const override {
    return index < kNumThroughput;  // Stopwatch-timed replay throughput
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    PointResult p;
    if (index < kNumThroughput) {
      // Replay throughput of the devirtualized + remap-cached engine vs the
      // virtual-dispatch BpuModel on an identical materialized trace.
      const auto mspec = with_seed(
          {.model = kThroughputModels[index], .direction = kThroughputDirs[index]}, spec);
      const sim::BpuSimOptions opt{.max_branches = spec.scale.trace_branches,
                                   .warmup_branches = spec.scale.trace_warmup};
      trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
      trace::VectorStream stream(
          trace::collect(gen, opt.warmup_branches + opt.max_branches));
      const double branches =
          static_cast<double>(opt.warmup_branches + opt.max_branches);

      // Interleave repetitions of both arms and keep each arm's best time;
      // every repetition rebuilds its model so all start cold.
      double legacy_secs = 1e300, devirt_secs = 1e300;
      core::RemapCacheStats cache_stats;
      sim::BranchStats legacy_stats, devirt_stats;
      for (unsigned rep = 0; rep < 3; ++rep) {
        stream.reset();
        auto legacy = models::BpuModel::create(mspec);
        Stopwatch sw;
        legacy_stats = sim::simulate_bpu(*legacy, stream, opt);
        legacy_secs = std::min(legacy_secs, std::max(sw.seconds(), 1e-9));

        stream.reset();
        auto engine = models::make_engine(mspec);
        sw.restart();
        devirt_stats = models::replay_engine(*engine, stream, opt);
        devirt_secs = std::min(devirt_secs, std::max(sw.seconds(), 1e-9));
        if (rep == 0) {
          cache_stats = models::engine_remap_cache_stats(*engine);
        }
      }
      const double legacy_bps = branches / legacy_secs;
      const double devirt_bps = branches / devirt_secs;
      p.set("section", "throughput")
          .set("legacy_branches_per_sec", legacy_bps)
          .set("devirt_branches_per_sec", devirt_bps)
          .set("branches_per_sec", devirt_bps)
          .set("speedup", devirt_bps / legacy_bps)
          .set("remap_cache_hit_rate", cache_stats.hit_rate())
          .set("identical_stats", legacy_stats == devirt_stats ? "true" : "false");
      if (spec.cache_stats) append_cache_stats(p, cache_stats);
      return p;
    }

    const std::size_t cell = index - kNumThroughput;
    const auto profiles = trace::figure4_profiles();
    const auto c = run_single_cell(spec, profiles[cell / 4], kDirs[cell % 4]);
    p.set("section", "figure4");
    set_cell_fields(p, c, "normalized_ipc");
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const auto profiles = trace::figure4_profiles();
    for (std::size_t t = 0; t < kNumThroughput; ++t) {
      if (!spec.selected(t)) continue;
      Row& row = out.rows.emplace_back(models::to_string(kThroughputModels[t]) + "/" +
                                       models::to_string(kThroughputDirs[t]));
      row.fields = points[t].fields;
    }
    double sum_dir[kNumDefenseArms][4] = {}, sum_tgt[kNumDefenseArms][4] = {},
           sum_ipc[kNumDefenseArms][4] = {};
    unsigned count[4] = {};
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      for (unsigned d = 0; d < 4; ++d) {
        const std::size_t index = kNumThroughput + p * 4 + d;
        if (!spec.selected(index)) continue;
        const PointResult& cell = points[index];
        for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
          const std::string prefix = arm_prefix(a);
          sum_dir[a][d] += cell.num(prefix + "direction_reduction");
          sum_tgt[a][d] += cell.num(prefix + "target_reduction");
          sum_ipc[a][d] += cell.num(prefix + "normalized_ipc");
        }
        ++count[d];
        Row& row = out.rows.emplace_back(profiles[p].name + "/" + kDirNames[d]);
        row.fields = cell.fields;
      }
    }
    for (unsigned d = 0; d < 4; ++d) {
      if (count[d] == 0) continue;
      const double n = static_cast<double>(count[d]);
      Row& row = out.rows.emplace_back(std::string("AVERAGE/") + kDirNames[d]);
      row.set("section", "figure4_average");
      for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
        const std::string prefix = arm_prefix(a);
        row.set(prefix + "direction_reduction", sum_dir[a][d] / n)
            .set(prefix + "target_reduction", sum_tgt[a][d] / n)
            .set(prefix + "normalized_ipc", sum_ipc[a][d] / n);
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// fig5_smt — SMT workload-pair evaluation (harmonic-mean IPC).
// ---------------------------------------------------------------------------

// The 31 pairs of Figure 5, in the paper's axis order.
constexpr const char* kFig5Pairs[][2] = {
    {"bwaves", "fotonik3d"}, {"bwaves", "cactuBSSN"}, {"bwaves", "leela"},
    {"bwaves", "cam4"},      {"exchange2", "nab"},    {"bwaves", "wrf"},
    {"leela", "namd"},       {"exchange2", "mcf"},    {"bwaves", "deepsjeng"},
    {"exchange2", "fotonik3d"}, {"deepsjeng", "lbm"}, {"bwaves", "namd"},
    {"bwaves", "lbm"},       {"leela", "mcf"},        {"lbm", "xz"},
    {"fotonik3d", "mcf"},    {"lbm", "namd"},         {"lbm", "mcf"},
    {"exchange2", "leela"},  {"fotonik3d", "lbm"},    {"cam4", "mcf"},
    {"nab", "xz"},           {"exchange2", "namd"},   {"bwaves", "roms"},
    {"mcf", "xz"},           {"exchange2", "lbm"},    {"bwaves", "povray"},
    {"fotonik3d", "leela"},  {"fotonik3d", "namd"},   {"deepsjeng", "xz"},
    {"bwaves", "exchange2"}};
constexpr std::size_t kNumFig5Pairs = sizeof(kFig5Pairs) / sizeof(kFig5Pairs[0]);

class Fig5Scenario final : public ScenarioBase {
 public:
  Fig5Scenario()
      : ScenarioBase("fig5_smt",
                     "Figure 5: SMT workload-pair evaluation (harmonic-mean "
                     "IPC)") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const auto& pair : kFig5Pairs) {
      const std::string base = std::string(pair[0]) + "_" + pair[1];
      for (const char* d : kDirNames) labels.push_back(base + "/" + d);
    }
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const auto& pair = kFig5Pairs[index / 4];
    const auto c = run_smt_cell(spec, trace::profile_by_name(pair[0]),
                                trace::profile_by_name(pair[1]), kDirs[index % 4]);
    PointResult p;
    set_cell_fields(p, c, "normalized_ipc_harmonic");
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const auto labels = point_labels(spec);
    double sum_dir[kNumDefenseArms][4] = {}, sum_tgt[kNumDefenseArms][4] = {},
           sum_ipc[kNumDefenseArms][4] = {};
    unsigned count[4] = {};
    for (std::size_t p = 0; p < kNumFig5Pairs; ++p) {
      for (unsigned d = 0; d < 4; ++d) {
        const std::size_t index = p * 4 + d;
        if (!spec.selected(index)) continue;
        const PointResult& cell = points[index];
        for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
          const std::string prefix = arm_prefix(a);
          sum_dir[a][d] += cell.num(prefix + "direction_reduction");
          sum_tgt[a][d] += cell.num(prefix + "target_reduction");
          sum_ipc[a][d] += cell.num(prefix + "normalized_ipc_harmonic");
        }
        ++count[d];
        Row& row = out.rows.emplace_back(labels[index]);
        row.fields = cell.fields;
      }
    }
    for (unsigned d = 0; d < 4; ++d) {
      if (count[d] == 0) continue;
      const double n = static_cast<double>(count[d]);
      Row& row = out.rows.emplace_back(std::string("AVERAGE/") + kDirNames[d]);
      for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
        const std::string prefix = arm_prefix(a);
        row.set(prefix + "direction_reduction", sum_dir[a][d] / n)
            .set(prefix + "target_reduction", sum_tgt[a][d] / n)
            .set(prefix + "normalized_ipc_harmonic", sum_ipc[a][d] / n);
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// fig6_rsweep — performance under aggressive re-randomization.
// ---------------------------------------------------------------------------

constexpr const char* kFig6Pairs[][2] = {{"bwaves", "mcf"},      {"exchange2", "leela"},
                                         {"fotonik3d", "namd"},  {"deepsjeng", "xz"},
                                         {"bwaves", "exchange2"}, {"leela", "mcf"}};
constexpr double kFig6Rs[] = {0.05, 0.01, 1e-3, 1e-4, 1e-5, 5e-6};
constexpr unsigned kNumFig6Rs = 6;

unsigned fig6_pairs(const Scale& scale) { return scale.paper ? 6 : 4; }

std::string fig6_r_label(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r=%g", r);
  return buf;
}

class Fig6Scenario final : public ScenarioBase {
 public:
  Fig6Scenario()
      : ScenarioBase("fig6_rsweep",
                     "Figure 6: performance under aggressive re-randomization "
                     "(r sweep)") {}

  // Grid: `npairs` unprotected baselines, then per defense arm (STBPU
  // first, keeping the legacy indices and labels byte-identical) the full
  // r × pair sweep. Rival-arm labels carry the arm kind as an extra path
  // segment: "r=1e-05/CIBPU/bwaves_mcf".
  std::vector<std::string> point_labels(const ExperimentSpec& spec) const override {
    const unsigned npairs = fig6_pairs(spec.scale);
    std::vector<std::string> labels;
    for (unsigned p = 0; p < npairs; ++p) {
      labels.push_back(std::string("base/") + kFig6Pairs[p][0] + "_" + kFig6Pairs[p][1]);
    }
    for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
      const std::string arm =
          a == 0 ? std::string{} : models::to_string(kDefenseArms[a]) + "/";
      for (const double r : kFig6Rs) {
        for (unsigned p = 0; p < npairs; ++p) {
          labels.push_back(fig6_r_label(r) + "/" + arm + kFig6Pairs[p][0] + "_" +
                           kFig6Pairs[p][1]);
        }
      }
    }
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const unsigned npairs = fig6_pairs(spec.scale);
    PointResult out;
    const auto run_pair = [&](unsigned p, const models::ModelSpec& mspec) {
      for_each_engine(mspec, [&](auto& engine) {
        with_instr_stream(spec, trace::profile_by_name(kFig6Pairs[p][0]),
                          [&](trace::InstrStream& s0) {
        with_instr_stream(spec, trace::profile_by_name(kFig6Pairs[p][1]),
                          [&](trace::InstrStream& s1) {
        const auto res = sim::run_ooo({}, engine, {&s0, &s1},
                                      spec.scale.ooo_instructions, spec.scale.ooo_warmup);
        if (mspec.model == models::ModelKind::kUnprotected) {
          out.set("ipc_harmonic", res.ipc_harmonic_mean());
        } else {
          const auto combined = res.combined_stats();
          std::uint64_t rerands = 0;
          if (auto* mon = engine.monitor()) rerands = mon->rerandomizations();
          out.set("direction_rate", combined.direction_rate())
              .set("target_rate", combined.target_rate())
              .set("ipc_harmonic", res.ipc_harmonic_mean())
              .set("rerandomizations", rerands);
        }
        });
        });
      });
    };
    if (index < npairs) {
      run_pair(static_cast<unsigned>(index),
               with_seed({.model = models::ModelKind::kUnprotected,
                          .direction = models::DirectionKind::kTage64},
                         spec));
    } else {
      const std::size_t per_arm = std::size_t{kNumFig6Rs} * npairs;
      const std::size_t sweep = index - npairs;
      const std::size_t arm = sweep / per_arm;
      const unsigned ri = static_cast<unsigned>((sweep % per_arm) / npairs);
      const unsigned p = static_cast<unsigned>(sweep % npairs);
      models::ModelSpec mspec = with_seed({.model = kDefenseArms[arm],
                                           .direction = models::DirectionKind::kTage64},
                                          spec);
      mspec.rerand_difficulty_r = kFig6Rs[ri];
      run_pair(p, mspec);
    }
    return out;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const unsigned npairs = fig6_pairs(spec.scale);
    const bool separate_tagged = true;  // TAGE-based arms (§VII-B2)
    const std::size_t per_arm = std::size_t{kNumFig6Rs} * npairs;
    for (std::size_t a = 0; a < kNumDefenseArms; ++a) {
      // STBPU rows keep the legacy "r=..." labels; rival rows append the
      // arm kind ("r=.../CIBPU"). Split concatenation (GCC 12 -Wrestrict
      // false positive on `"lit" + std::string&&`, as in runner.cc).
      std::string arm_suffix;
      if (a != 0) {
        arm_suffix = "/";
        arm_suffix += models::to_string(kDefenseArms[a]);
      }
      for (unsigned ri = 0; ri < kNumFig6Rs; ++ri) {
        double dir = 0, tgt = 0, nipc = 0;
        std::uint64_t rerands = 0;
        unsigned count = 0;
        for (unsigned p = 0; p < npairs; ++p) {
          const std::size_t base_index = p;
          const std::size_t index = npairs + a * per_arm + ri * std::size_t{npairs} + p;
          if (!spec.selected(index) || !spec.selected(base_index)) continue;
          const double base_ipc = points[base_index].num("ipc_harmonic");
          dir += points[index].num("direction_rate");
          tgt += points[index].num("target_rate");
          nipc += base_ipc > 0 ? points[index].num("ipc_harmonic") / base_ipc : 0.0;
          rerands += points[index].u64("rerandomizations");
          ++count;
        }
        if (count == 0) continue;
        const double r = kFig6Rs[ri];
        const core::MonitorConfig mc =
            core::MonitorConfig::from_difficulty(r, separate_tagged);
        out.rows.emplace_back(fig6_r_label(r) + arm_suffix)
            .set("difficulty_r", r)
            .set("misprediction_threshold", std::uint64_t{mc.misprediction_threshold})
            .set("eviction_threshold", std::uint64_t{mc.eviction_threshold})
            .set("direction_rate", dir / count)
            .set("target_rate", tgt / count)
            .set("normalized_ipc_harmonic", nipc / count)
            .set("rerandomizations", rerands);
      }
    }
    out.meta.push_back({"pairs", Value(std::uint64_t{npairs})});
    return out;
  }
};

// ---------------------------------------------------------------------------
// ooo_engine — engine-typed OoO fan-out vs the interface-typed core.
// ---------------------------------------------------------------------------

class OooEngineScenario final : public ScenarioBase {
 public:
  OooEngineScenario()
      : ScenarioBase("ooo_engine",
                     "Cycle-level core study: integer-tick SoA core vs the "
                     "double-precision reference, typed vs IPredictor "
                     "dispatch, pregenerated vs on-the-fly streams") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (std::size_t t = 0; t < kNumThroughput; ++t) {
      labels.push_back(models::to_string(kThroughputModels[t]) + "/" +
                       models::to_string(kThroughputDirs[t]));
    }
    return labels;
  }

  bool timing_sensitive(const ExperimentSpec&, std::size_t) const override {
    return true;  // every point is a best-of-3 wall-clock measurement
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const auto mspec = with_seed(
        {.model = kThroughputModels[index], .direction = kThroughputDirs[index]}, spec);
    const auto profile = trace::profile_by_name("mcf");

    // Interleaved best-of-3 (fresh engine + stream per repetition), four
    // arms: the interface-typed tick core, the engine-typed tick core
    // through for_each_engine, the engine-typed double-precision
    // reference core (OooCoreRefT), the controlled A/B for the integer-tick
    // + SoA rewrite (`int_speedup`), and the pregenerated-stream arm: the
    // identical engine-typed tick core fed by a cursor over the shared
    // whole-run SoA artifact instead of the on-the-fly generator
    // (`gen_speedup` — the generation cost every other arm pays per run is
    // exactly what pregeneration removes; the artifact itself is built once
    // per process, outside every stopwatch, and reused across arms, reps
    // and sweep points).
    double iface_secs = 1e300, typed_secs = 1e300, ref_secs = 1e300, pregen_secs = 1e300;
    sim::OooResult iface_result{}, typed_result{}, ref_result{}, pregen_result{};
    core::RemapCacheStats cache_stats;
    const bool pregen = pregen_enabled(spec);
    std::shared_ptr<const trace::InstrTrace> pregen_trace;
    if (pregen) {
      pregen_trace = trace::shared_instr_trace(profile, pregen_instr_count(spec));
    }
    for (unsigned rep = 0; rep < 3; ++rep) {
      {
        auto engine = models::make_engine(mspec);
        trace::SyntheticInstrGenerator gen(profile);
        bpu::IPredictor* iface = engine.get();
        Stopwatch sw;
        iface_result = sim::run_ooo({}, *iface, {&gen}, spec.scale.ooo_instructions,
                                    spec.scale.ooo_warmup);
        iface_secs = std::min(iface_secs, std::max(sw.seconds(), 1e-9));
      }
      for_each_engine(mspec, [&](auto& engine) {
        trace::SyntheticInstrGenerator gen(profile);
        Stopwatch sw;
        typed_result = sim::run_ooo({}, engine, {&gen}, spec.scale.ooo_instructions,
                                    spec.scale.ooo_warmup);
        typed_secs = std::min(typed_secs, std::max(sw.seconds(), 1e-9));
        if (rep == 0) {
          cache_stats = models::engine_remap_cache_stats(engine);
        }
      });
      for_each_engine(mspec, [&](auto& engine) {
        trace::SyntheticInstrGenerator gen(profile);
        Stopwatch sw;
        ref_result = sim::run_ooo_ref({}, engine, {&gen}, spec.scale.ooo_instructions,
                                      spec.scale.ooo_warmup);
        ref_secs = std::min(ref_secs, std::max(sw.seconds(), 1e-9));
      });
      for_each_engine(mspec, [&](auto& engine) {
        // Generator fallback keeps the arm honest at budgets beyond the
        // pregen cap: gen_speedup is then ~1.0 by construction.
        if (pregen) {
          trace::InstrTraceStream stream(pregen_trace);
          Stopwatch sw;
          pregen_result = sim::run_ooo({}, engine, {&stream},
                                       spec.scale.ooo_instructions,
                                       spec.scale.ooo_warmup);
          pregen_secs = std::min(pregen_secs, std::max(sw.seconds(), 1e-9));
        } else {
          trace::SyntheticInstrGenerator gen(profile);
          Stopwatch sw;
          pregen_result = sim::run_ooo({}, engine, {&gen},
                                       spec.scale.ooo_instructions,
                                       spec.scale.ooo_warmup);
          pregen_secs = std::min(pregen_secs, std::max(sw.seconds(), 1e-9));
        }
      });
    }
    const double branches = static_cast<double>(typed_result.combined_stats().branches);
    const double iface_bps = branches / iface_secs;
    const double typed_bps = branches / typed_secs;
    const double ref_bps = branches / ref_secs;
    const double pregen_bps = branches / pregen_secs;
    // Every arm must be bit-identical in everything the simulation
    // computes: BranchStats, instruction counts, cycles, the cache
    // hierarchy's demand counters, and — among the tick-core arms — the
    // stall attribution (the double reference predates the counters and
    // leaves them zero by design).
    const bool identical =
        iface_result.combined_stats() == typed_result.combined_stats() &&
        iface_result.instructions == typed_result.instructions &&
        iface_result.cycles == typed_result.cycles &&
        iface_result.cache == typed_result.cache &&
        iface_result.stalls == typed_result.stalls &&
        ref_result.combined_stats() == typed_result.combined_stats() &&
        ref_result.instructions == typed_result.instructions &&
        ref_result.cycles == typed_result.cycles &&
        ref_result.cache == typed_result.cache &&
        pregen_result.combined_stats() == typed_result.combined_stats() &&
        pregen_result.instructions == typed_result.instructions &&
        pregen_result.cycles == typed_result.cycles &&
        pregen_result.cache == typed_result.cache &&
        pregen_result.stalls == typed_result.stalls;
    PointResult p;
    p.set("iface_branches_per_sec", iface_bps)
        .set("typed_branches_per_sec", typed_bps)
        .set("ref_double_branches_per_sec", ref_bps)
        .set("pregen_branches_per_sec", pregen_bps)
        .set("branches_per_sec", typed_bps)
        .set("speedup", typed_bps / iface_bps)
        .set("int_speedup", typed_bps / ref_bps)
        .set("gen_speedup", pregen_bps / typed_bps)
        .set("pregen_mode", pregen ? "artifact" : "generator-fallback")
        .set("measured_branches", std::uint64_t{typed_result.combined_stats().branches})
        .set("ipc", typed_result.ipc[0])
        .set("l1d_hits", typed_result.cache.l1d_hits)
        .set("l1d_misses", typed_result.cache.l1d_misses)
        .set("l2_hits", typed_result.cache.l2_hits)
        .set("l2_misses", typed_result.cache.l2_misses)
        .set("llc_hits", typed_result.cache.llc_hits)
        .set("llc_misses", typed_result.cache.llc_misses)
        .set("identical_stats", identical ? "true" : "false");
    if (spec.cache_stats) append_cache_stats(p, cache_stats);
    if (spec.stall_stats) append_stall_stats(p, typed_result);
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

void register_ooo() {
  register_scenario(new Fig4Scenario);
  register_scenario(new Fig5Scenario);
  register_scenario(new Fig6Scenario);
  register_scenario(new OooEngineScenario);
}

}  // namespace scenarios

}  // namespace stbpu::exp
