// Cycle-level core equivalence, two axes at once:
//
//  1. Engine-typed fan-out: the core instantiated on the concrete engine
//     type (exp::for_each_engine + sim::run_ooo — zero per-branch virtual
//     dispatch) must produce BIT-IDENTICAL results to driving the same
//     engine through the interface-typed core. This is the contract that
//     lets the OoO scenarios adopt the typed path without changing
//     Figures 4-6.
//  2. Integer-tick vs double-precision: the production OooCoreT runs on
//     u64 ticks (1 tick = 1/width cycle) with SoA ring state; the retained
//     OooCoreRefT is the original double/AoS implementation. With the
//     default power-of-two width every double the reference computes is an
//     exact multiple of 1/width, so cycles and IPC (reconstructed from
//     ticks at report time) must match bit-for-bit — not approximately —
//     and BranchStats/instruction counts are identical by construction.
//     Asserted across all 20 model×direction combos and the SMT config.
#include <gtest/gtest.h>

#include <memory>

#include "exp/engine_visit.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/ooo.h"
#include "trace/instr.h"
#include "trace/pregen.h"
#include "trace/profile.h"

namespace stbpu {
namespace {

constexpr std::uint64_t kBudget = 20'000;
constexpr std::uint64_t kWarmup = 2'000;

void expect_identical_results(const sim::OooResult& iface, const sim::OooResult& typed,
                              const models::ModelSpec& spec) {
  const auto label =
      models::to_string(spec.model) + "/" + models::to_string(spec.direction);
  ASSERT_EQ(iface.threads, typed.threads) << label;
  for (unsigned t = 0; t < iface.threads; ++t) {
    EXPECT_EQ(iface.instructions[t], typed.instructions[t]) << label;
    EXPECT_EQ(iface.cycles[t], typed.cycles[t]) << label;    // bit-exact doubles
    EXPECT_EQ(iface.ipc[t], typed.ipc[t]) << label;
    EXPECT_EQ(iface.branch_stats[t], typed.branch_stats[t]) << label;
  }
  // The cache hierarchy's demand counters are part of the contract: the
  // interleaved metadata layout must make the same hit/miss/evict
  // decisions in every core variant.
  EXPECT_EQ(iface.cache, typed.cache) << label;
  EXPECT_GT(iface.combined_stats().branches, 0u) << label;
}

void expect_single_equivalent(const models::ModelSpec& spec) {
  // Interface-typed baseline: the engine driven through IPredictor*.
  auto engine = models::make_engine(spec);
  trace::SyntheticInstrGenerator gen(trace::profile_by_name("mcf"));
  bpu::IPredictor* iface = engine.get();
  const auto iface_result = sim::run_ooo({}, *iface, {&gen}, kBudget, kWarmup);

  // Double-precision reference core on a fresh identical engine: the
  // integer-tick core must reproduce its cycles/IPC bit-for-bit.
  auto ref_engine = models::make_engine(spec);
  trace::SyntheticInstrGenerator ref_gen(trace::profile_by_name("mcf"));
  bpu::IPredictor* ref_iface = ref_engine.get();
  const auto ref_result = sim::run_ooo_ref({}, *ref_iface, {&ref_gen}, kBudget, kWarmup);
  expect_identical_results(ref_result, iface_result, spec);

  // Engine-typed path: concrete EngineT recovered once, OooCoreT
  // instantiated on it.
  sim::OooResult typed_result{};
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& typed_engine) {
    trace::SyntheticInstrGenerator typed_gen(trace::profile_by_name("mcf"));
    typed_result = sim::run_ooo({}, typed_engine, {&typed_gen}, kBudget, kWarmup);
  })) << "for_each_engine did not dispatch";

  expect_identical_results(iface_result, typed_result, spec);

  // Engine-typed double reference vs the engine-typed tick
  // core: the integerization must be exact on the devirtualized path too.
  sim::OooResult ref_typed{};
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& typed_engine) {
    trace::SyntheticInstrGenerator typed_gen(trace::profile_by_name("mcf"));
    ref_typed = sim::run_ooo_ref({}, typed_engine, {&typed_gen}, kBudget, kWarmup);
  }));
  expect_identical_results(ref_typed, typed_result, spec);

  // Pregenerated-stream arm: the same engine-typed tick core fed by a
  // cursor over the whole-run SoA artifact, consumed by pointer through
  // the fetch window — the blocks must be pure transport. Stall
  // attribution is compared too (both arms run the tick core).
  sim::OooResult pregen_result{};
  const auto artifact = trace::shared_instr_trace(trace::profile_by_name("mcf"),
                                                  kBudget + kWarmup + 4096);
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& typed_engine) {
    trace::InstrTraceStream stream(artifact);
    pregen_result = sim::run_ooo({}, typed_engine, {&stream}, kBudget, kWarmup);
  }));
  expect_identical_results(typed_result, pregen_result, spec);
  EXPECT_EQ(typed_result.stalls, pregen_result.stalls)
      << models::to_string(spec.model) + "/" + models::to_string(spec.direction);
}

TEST(OooTypedEquivalence, AllModelsSingleThread) {
  // All 20 model × direction combos, each through the per-record fetch
  // (generator streams) and the windowed fetch (the pregenerated arm).
  for (const auto model :
       {models::ModelKind::kUnprotected, models::ModelKind::kUcode1,
        models::ModelKind::kUcode2, models::ModelKind::kConservative,
        models::ModelKind::kStbpu}) {
    for (const auto dir : {models::DirectionKind::kSklCond, models::DirectionKind::kTage8,
                           models::DirectionKind::kTage64,
                           models::DirectionKind::kPerceptron}) {
      expect_single_equivalent({.model = model, .direction = dir});
    }
  }
}

TEST(OooTypedEquivalence, StbpuSmtPair) {
  // The SMT configuration (shared BPU, two instruction streams) through
  // the TAGE-64 STBPU — the combination Figures 5/6 rely on.
  const models::ModelSpec spec{.model = models::ModelKind::kStbpu,
                               .direction = models::DirectionKind::kTage64};

  auto engine = models::make_engine(spec);
  trace::SyntheticInstrGenerator g0(trace::profile_by_name("bwaves"));
  trace::SyntheticInstrGenerator g1(trace::profile_by_name("mcf"));
  bpu::IPredictor* iface = engine.get();
  const auto iface_result = sim::run_ooo({}, *iface, {&g0, &g1}, kBudget, kWarmup);

  sim::OooResult typed_result{};
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& typed_engine) {
    trace::SyntheticInstrGenerator t0(trace::profile_by_name("bwaves"));
    trace::SyntheticInstrGenerator t1(trace::profile_by_name("mcf"));
    typed_result = sim::run_ooo({}, typed_engine, {&t0, &t1}, kBudget, kWarmup);
  }));

  expect_identical_results(iface_result, typed_result, spec);
  EXPECT_EQ(iface_result.threads, 2u);
  EXPECT_EQ(iface_result.ipc_harmonic_mean(), typed_result.ipc_harmonic_mean());

  // SMT through the double reference core: the shared fetch/issue tick
  // clocks must interleave the two threads exactly as the shared double
  // clocks did — thread ordering, context switches, and both threads'
  // cycles bit-identical.
  auto ref_engine = models::make_engine(spec);
  trace::SyntheticInstrGenerator r0(trace::profile_by_name("bwaves"));
  trace::SyntheticInstrGenerator r1(trace::profile_by_name("mcf"));
  bpu::IPredictor* ref_iface = ref_engine.get();
  const auto ref_result = sim::run_ooo_ref({}, *ref_iface, {&r0, &r1}, kBudget, kWarmup);
  expect_identical_results(ref_result, typed_result, spec);
  EXPECT_EQ(ref_result.ipc_harmonic_mean(), typed_result.ipc_harmonic_mean());
}

TEST(OooTypedEquivalence, VisitRecoversConcreteTypeOnce) {
  // for_each_engine hands the scenario a reference whose static type is the
  // final EngineT — not IPredictor — so OooCoreT instantiates devirtualized.
  const models::ModelSpec spec{.model = models::ModelKind::kStbpu,
                               .direction = models::DirectionKind::kSklCond};
  bool visited = false;
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
    using Engine = std::decay_t<decltype(engine)>;
    static_assert(!std::is_same_v<Engine, bpu::IPredictor>);
    static_assert(std::is_final_v<Engine>);
    visited = true;
  }));
  EXPECT_TRUE(visited);

  // Foreign predictors are reported, not mis-dispatched.
  auto legacy = models::BpuModel::create(spec);
  EXPECT_FALSE(models::visit_engine(*legacy, [](auto&) {}));
}

}  // namespace
}  // namespace stbpu
