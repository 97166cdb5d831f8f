// Devirtualized-engine equivalence: models::make_engine(spec) must produce
// BIT-IDENTICAL prediction statistics to the legacy virtual-dispatch
// BpuModel::create(spec) on identical traces — every field of BranchStats,
// for every model kind and direction predictor, on both the record-at-a-
// time legacy loop and the batched SoA replay. This is the contract that
// lets the benches swap in the fast engine without changing any figure.
#include <gtest/gtest.h>

#include <vector>

#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu {
namespace {

std::uint64_t rerandomizations(bpu::IPredictor& engine) {
  std::uint64_t n = 0;
  models::visit_engine(engine, [&](auto& e) {
    if (e.tokens() != nullptr) n = e.tokens()->rerandomizations();
  });
  return n;
}

trace::VectorStream make_trace(const char* profile_name, std::uint64_t branches) {
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name(profile_name));
  return trace::VectorStream(trace::collect(gen, branches));
}

/// Returns the engine's ψ re-key count (0 for arms without tokens).
std::uint64_t expect_equivalent(const models::ModelSpec& spec, trace::VectorStream& stream,
                                const sim::BpuSimOptions& opt) {
  stream.reset();
  auto legacy = models::BpuModel::create(spec);
  const auto legacy_stats = sim::simulate_bpu(*legacy, stream, opt);

  stream.reset();
  auto engine = models::make_engine(spec);
  const auto engine_stats = models::replay_engine(*engine, stream, opt);

  EXPECT_EQ(legacy_stats, engine_stats)
      << "stats diverge for " << models::to_string(spec.model) << "/"
      << models::to_string(spec.direction) << " (OAE legacy=" << legacy_stats.oae()
      << " engine=" << engine_stats.oae() << ")";
  return rerandomizations(*engine);
}

TEST(EngineEquivalence, AllModelsAllDirectionsBitIdentical) {
  // The kind/direction axes come from the registry itself
  // (all_model_kinds/all_direction_kinds), so an arm added to
  // RegisteredArms is covered here with no test edit.
  auto stream = make_trace("perlbench", 60'000);
  const sim::BpuSimOptions opt{.max_branches = 50'000, .warmup_branches = 10'000};
  for (const auto kind : models::all_model_kinds()) {
    for (const auto dir : models::all_direction_kinds()) {
      expect_equivalent({.model = kind, .direction = dir}, stream, opt);
    }
  }
}

TEST(EngineEquivalence, TokenKeyedArmsWithAggressiveRerandomization) {
  // Tiny thresholds force many monitor-triggered ψ re-keys mid-trace —
  // exactly the regime where a stale memo-cache entry would diverge. Every
  // token-keyed arm (STBPU and both rivals) goes through it.
  auto stream = make_trace("mcf", 80'000);
  const sim::BpuSimOptions opt{.max_branches = 70'000, .warmup_branches = 10'000};
  for (const auto kind :
       {models::ModelKind::kStbpu, models::ModelKind::kCibpu,
        models::ModelKind::kXorIsolation}) {
    models::ModelSpec spec{.model = kind,
                           .direction = models::DirectionKind::kSklCond};
    spec.rerand_difficulty_r = 1e-5;  // thresholds of a few events
    expect_equivalent(spec, stream, opt);
  }
}

TEST(EngineEquivalence, StbpuTageUnderAggressiveRerandomization) {
  // STBPU/TAGE engines compute every table's Rt index and tag in one
  // batched mix per access; the legacy BpuModel makes the per-table calls.
  // Tiny thresholds force re-keys mid-trace, and the server profile adds
  // context switches, so ψ changes between and within entities.
  for (const char* profile : {"mcf", "apache2_prefork_c32"}) {
    auto stream = make_trace(profile, 80'000);
    const sim::BpuSimOptions opt{.max_branches = 70'000, .warmup_branches = 10'000};
    for (const auto dir : {models::DirectionKind::kTage8, models::DirectionKind::kTage64}) {
      models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};
      spec.rerand_difficulty_r = 1e-5;  // thresholds of a few events
      EXPECT_GT(expect_equivalent(spec, stream, opt), 0u)
          << profile << "/" << models::to_string(dir) << ": no re-key happened";
    }
  }
}

TEST(EngineEquivalence, StbpuTageSmtPairMatchesLegacy) {
  // Two hardware threads share one STBPU/TAGE predictor (per-hart folds,
  // one ψ per entity): the cycle-level core interleaves them, with
  // aggressive re-keying on top.
  for (const auto dir : {models::DirectionKind::kTage8, models::DirectionKind::kTage64}) {
    models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};
    spec.rerand_difficulty_r = 1e-5;
    trace::SyntheticInstrGenerator l0(trace::profile_by_name("bwaves"));
    trace::SyntheticInstrGenerator l1(trace::profile_by_name("mcf"));
    auto legacy = models::BpuModel::create(spec);
    sim::OooCore c1({}, legacy.get(), {&l0, &l1});
    const auto r1 = c1.run(40'000, 4'000);

    trace::SyntheticInstrGenerator e0(trace::profile_by_name("bwaves"));
    trace::SyntheticInstrGenerator e1(trace::profile_by_name("mcf"));
    auto engine = models::make_engine(spec);
    sim::OooCore c2({}, engine.get(), {&e0, &e1});
    const auto r2 = c2.run(40'000, 4'000);

    ASSERT_EQ(r1.threads, 2u);
    for (unsigned t = 0; t < 2; ++t) {
      EXPECT_EQ(r1.branch_stats[t], r2.branch_stats[t]) << models::to_string(dir) << " t" << t;
      EXPECT_DOUBLE_EQ(r1.ipc[t], r2.ipc[t]) << models::to_string(dir) << " t" << t;
    }
    EXPECT_GT(rerandomizations(*engine), 0u) << models::to_string(dir);
  }
}

TEST(EngineEquivalence, ContextSwitchHeavyWorkload) {
  // Server-style profile: frequent context switches + kernel excursions
  // exercise the flush policies and the cache's cross-entity tagging.
  auto stream = make_trace("apache2_prefork_c32", 80'000);
  const sim::BpuSimOptions opt{.max_branches = 70'000, .warmup_branches = 10'000};
  for (const auto kind :
       {models::ModelKind::kUcode1, models::ModelKind::kUcode2,
        models::ModelKind::kConservative, models::ModelKind::kStbpu,
        models::ModelKind::kCibpu, models::ModelKind::kXorIsolation}) {
    expect_equivalent({.model = kind, .direction = models::DirectionKind::kSklCond},
                      stream, opt);
  }
}

TEST(EngineEquivalence, BatchedReplayMatchesRecordAtATimeLoop) {
  // The batched SoA loop and the legacy per-record loop must agree given
  // the SAME model type (loop-level equivalence, independent of engine).
  auto stream = make_trace("leela", 60'000);
  const sim::BpuSimOptions opt{.max_branches = 50'000, .warmup_branches = 5'000};

  stream.reset();
  auto m1 = models::BpuModel::create({.model = models::ModelKind::kStbpu});
  const auto a = sim::simulate_bpu(*m1, stream, opt);

  stream.reset();
  auto m2 = models::BpuModel::create({.model = models::ModelKind::kStbpu});
  const auto b = sim::replay(*m2, stream, opt);
  EXPECT_EQ(a, b);
}

TEST(EngineEquivalence, EngineThroughOooCoreMatchesLegacy) {
  // Cycle-level path: the OoO core drives both predictors through the
  // IPredictor seam; IPC and branch stats must match exactly.
  models::ModelSpec spec{.model = models::ModelKind::kStbpu,
                         .direction = models::DirectionKind::kTage8};
  trace::SyntheticInstrGenerator g1(trace::profile_by_name("xz"));
  auto legacy = models::BpuModel::create(spec);
  sim::OooCore c1({}, legacy.get(), {&g1});
  const auto r1 = c1.run(60'000, 5'000);

  trace::SyntheticInstrGenerator g2(trace::profile_by_name("xz"));
  auto engine = models::make_engine(spec);
  sim::OooCore c2({}, engine.get(), {&g2});
  const auto r2 = c2.run(60'000, 5'000);

  EXPECT_EQ(r1.branch_stats[0], r2.branch_stats[0]);
  EXPECT_DOUBLE_EQ(r1.ipc[0], r2.ipc[0]);
}

}  // namespace
}  // namespace stbpu
