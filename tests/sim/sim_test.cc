// Simulators: OAE accounting in the trace-driven BPU simulator, cache
// hierarchy behaviour, and OoO timing-model invariants.
#include <gtest/gtest.h>

#include <stdexcept>

#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "sim/cache.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace stbpu::sim {
namespace {

// ------------------------------------------------------------ BPU sim ----

TEST(BpuSim, OaeAccountsAllNecessaryPredictions) {
  auto model = models::make_engine({});
  // A hand-built trace: a jump executed twice — first cold (incorrect),
  // then learned (correct).
  std::vector<bpu::BranchRecord> recs(2, {.ip = 0x1000, .target = 0x9000,
                                          .type = bpu::BranchType::kDirectJump,
                                          .taken = true,
                                          .ctx = {.pid = 1}});
  trace::VectorStream vs(recs);
  const auto stats =
      models::replay_engine(*model, vs, {.max_branches = 2, .warmup_branches = 0});
  EXPECT_EQ(stats.branches, 2u);
  EXPECT_EQ(stats.oae_correct, 1u);
  EXPECT_EQ(stats.mispredictions, 1u);
  EXPECT_DOUBLE_EQ(stats.oae(), 0.5);
}

TEST(BpuSim, WarmupExcludedFromStats) {
  auto model = models::make_engine({});
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
  const auto stats =
      models::replay_engine(*model, gen, {.max_branches = 1000, .warmup_branches = 5000});
  EXPECT_EQ(stats.branches, 1000u);
}

TEST(BpuSim, CountsContextAndModeSwitches) {
  auto model = models::make_engine({});
  std::vector<bpu::BranchRecord> recs;
  const auto mk = [](std::uint16_t pid, bool kernel) {
    return bpu::BranchRecord{.ip = 0x1000, .target = 0x9000,
                             .type = bpu::BranchType::kDirectJump, .taken = true,
                             .ctx = {.pid = pid, .hart = 0, .kernel = kernel}};
  };
  recs.push_back(mk(1, false));
  recs.push_back(mk(1, true));   // mode switch
  recs.push_back(mk(1, false));  // mode switch back
  recs.push_back(mk(2, false));  // context switch
  trace::VectorStream vs(recs);
  const auto stats =
      models::replay_engine(*model, vs, {.max_branches = 4, .warmup_branches = 0});
  EXPECT_EQ(stats.mode_switches, 2u);
  EXPECT_EQ(stats.context_switches, 1u);
}

TEST(BpuSim, IdenticalTraceAcrossModelsViaReset) {
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("xz"));
  auto m1 = models::make_engine({});
  const auto s1 =
      models::replay_engine(*m1, gen, {.max_branches = 20000, .warmup_branches = 0});
  gen.reset();
  auto m2 = models::make_engine({});
  const auto s2 =
      models::replay_engine(*m2, gen, {.max_branches = 20000, .warmup_branches = 0});
  EXPECT_EQ(s1.oae_correct, s2.oae_correct) << "same model + same trace = same result";
}

// -------------------------------------------------------------- cache ----

TEST(Cache, ColdMissThenHit) {
  CacheLevel l1({.size_kb = 32, .ways = 8, .latency = 4});
  EXPECT_FALSE(l1.access(0x1000));
  EXPECT_TRUE(l1.access(0x1000));
  EXPECT_TRUE(l1.access(0x1030)) << "same 64B line";
  EXPECT_FALSE(l1.access(0x1040)) << "next line";
}

TEST(Cache, LruEvictionWithinSet) {
  // 0 KB holds no set and is rejected; use a small real cache instead.
  EXPECT_THROW(CacheLevel({.size_kb = 0, .ways = 2, .latency = 1}), std::invalid_argument);
  CacheLevel tiny({.size_kb = 1, .ways = 2, .latency = 1});  // 8 sets
  const std::uint64_t stride = 8 * 64;  // same set
  tiny.access(0 * stride);
  tiny.access(1 * stride);
  tiny.access(0 * stride);        // refresh line 0
  tiny.access(2 * stride);        // evicts line 1 (LRU)
  EXPECT_TRUE(tiny.access(0 * stride));
  EXPECT_FALSE(tiny.access(1 * stride));
}

TEST(Cache, HierarchyLatenciesCompose) {
  CacheHierarchy h;
  const auto cold = h.load_latency(0x5000);
  EXPECT_EQ(cold, 4u + 14u + 42u + 220u);
  const auto hot = h.load_latency(0x5000);
  EXPECT_EQ(hot, 4u);
}

TEST(Cache, L2HitAfterL1Eviction) {
  CacheHierarchy h;
  h.load_latency(0x0);
  // Blow L1 (32KB) with 64KB of lines; L2 (256KB) retains them.
  for (std::uint64_t a = 64; a < 64 * 1024; a += 64) h.load_latency(a);
  const auto lat = h.load_latency(0x0);
  EXPECT_EQ(lat, 4u + 14u);
}

TEST(Cache, PrefetchHidesStreamLatency) {
  CacheHierarchy h;
  h.load_latency(0x0, /*streaming=*/true);  // cold + prefetch of line 1
  EXPECT_EQ(h.load_latency(64, true), 4u) << "next line was prefetched";
}

// ---------------------------------------------------------------- OoO ----

OooResult run_ooo(const char* workload, models::ModelSpec spec, std::uint64_t n,
                  std::uint64_t warm) {
  auto model = models::make_engine(spec);
  trace::SyntheticInstrGenerator gen(trace::profile_by_name(workload));
  OooCore core({}, model.get(), {&gen});
  return core.run(n, warm);
}

TEST(Ooo, IpcWithinPhysicalBounds) {
  const auto r = run_ooo("leela", {}, 100'000, 10'000);
  EXPECT_GT(r.ipc[0], 0.01);
  EXPECT_LE(r.ipc[0], 8.0) << "cannot exceed machine width";
  EXPECT_EQ(r.instructions[0], 100'000u);
}

TEST(Ooo, Deterministic) {
  const auto a = run_ooo("mcf", {}, 50'000, 5'000);
  const auto b = run_ooo("mcf", {}, 50'000, 5'000);
  EXPECT_DOUBLE_EQ(a.ipc[0], b.ipc[0]);
}

TEST(Ooo, BranchHostileWorkloadIsSlower) {
  const auto hostile = run_ooo("leela", {}, 80'000, 8'000);   // hard branches
  const auto friendly = run_ooo("exchange2", {}, 80'000, 8'000);
  EXPECT_LT(hostile.branch_stats[0].direction_rate(),
            friendly.branch_stats[0].direction_rate());
}

TEST(Ooo, MispredictionPenaltyLowersIpc) {
  // Same workload, perfect-vs-broken predictor: IPC must respond.
  auto good = models::make_engine({.direction = models::DirectionKind::kTage64});
  trace::SyntheticInstrGenerator g1(trace::profile_by_name("exchange2"));
  OooCore core1({}, good.get(), {&g1});
  const auto fast = core1.run(80'000, 8'000);

  OooConfig harsh;
  harsh.mispredict_penalty = 200;  // grotesque penalty amplifies the effect
  auto bad = models::make_engine({.direction = models::DirectionKind::kSklCond});
  trace::SyntheticInstrGenerator g2(trace::profile_by_name("exchange2"));
  OooCore core2(harsh, bad.get(), {&g2});
  const auto slow = core2.run(80'000, 8'000);
  EXPECT_LT(slow.ipc[0], fast.ipc[0]);
}

TEST(Ooo, SmtSharesBandwidth) {
  auto m1 = models::make_engine({.direction = models::DirectionKind::kTage64});
  trace::SyntheticInstrGenerator solo(trace::profile_by_name("leela"));
  OooCore solo_core({}, m1.get(), {&solo});
  const auto alone = solo_core.run(60'000, 6'000);

  auto m2 = models::make_engine({.direction = models::DirectionKind::kTage64});
  trace::SyntheticInstrGenerator a(trace::profile_by_name("leela"));
  trace::SyntheticInstrGenerator b(trace::profile_by_name("exchange2"));
  OooCore smt_core({}, m2.get(), {&a, &b});
  const auto pair = smt_core.run(60'000, 6'000);
  EXPECT_EQ(pair.threads, 2u);
  EXPECT_LT(pair.ipc[0], alone.ipc[0]) << "SMT sibling must cost throughput";
  EXPECT_GT(pair.ipc_harmonic_mean(), 0.0);
}

TEST(Ooo, HarmonicMeanBelowArithmetic) {
  auto m = models::make_engine({.direction = models::DirectionKind::kTage64});
  trace::SyntheticInstrGenerator a(trace::profile_by_name("bwaves"));
  trace::SyntheticInstrGenerator b(trace::profile_by_name("leela"));
  OooCore core({}, m.get(), {&a, &b});
  const auto r = core.run(60'000, 6'000);
  const double amean = (r.ipc[0] + r.ipc[1]) / 2.0;
  EXPECT_LE(r.ipc_harmonic_mean(), amean + 1e-12);
}

TEST(Ooo, TableIVConfigIsDefault) {
  const OooConfig cfg;
  EXPECT_EQ(cfg.width, 8u);
  EXPECT_EQ(cfg.rob, 192u);
  EXPECT_EQ(cfg.iq, 64u);
  EXPECT_EQ(cfg.lq, 32u);
  EXPECT_EQ(cfg.sq, 32u);
  EXPECT_EQ(cfg.caches.l1d.size_kb, 32u);
  EXPECT_EQ(cfg.caches.l2.size_kb, 256u);
  EXPECT_EQ(cfg.caches.llc.size_kb, 4096u);
}

}  // namespace
}  // namespace stbpu::sim
