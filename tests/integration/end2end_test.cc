// End-to-end integration: the paper's own validation steps plus the
// headline claims, executed across module boundaries.
#include <gtest/gtest.h>

#include "attacks/table1.h"
#include "exp/engine_visit.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace stbpu {
namespace {

TEST(Integration, SimulatorConsistencySklCond) {
  // Paper §VII-B2: "We compared the direction prediction accuracy between
  // SKLCond in gem5 with our previous baseline model using the same
  // workloads. We observed on average less than 5% direction prediction
  // difference which validates our simulator consistency."
  double total_diff = 0.0;
  const char* names[] = {"mcf", "leela", "bwaves", "exchange2"};
  for (const char* name : names) {
    const auto profile = trace::profile_by_name(name);
    auto m1 = models::make_engine({});
    trace::SyntheticWorkloadGenerator branch_gen(profile);
    const auto trace_stats = models::replay_engine(
        *m1, branch_gen, {.max_branches = 150'000, .warmup_branches = 20'000});

    trace::SyntheticInstrGenerator instr_gen(profile);
    sim::OooResult ooo;
    ASSERT_TRUE(exp::for_each_engine({}, [&](auto& engine) {
      ooo = sim::run_ooo({}, engine, {&instr_gen}, 400'000, 40'000);
    }));

    total_diff +=
        std::abs(trace_stats.direction_rate() - ooo.branch_stats[0].direction_rate());
  }
  EXPECT_LT(total_diff / 4.0, 0.05)
      << "trace-driven and cycle-level simulators must agree on accuracy";
}

TEST(Integration, HeadlineClaimAccuracyAndSecurityTogether) {
  // The paper's core claim in one test: on the same workload STBPU costs
  // ~nothing in accuracy while the attack surface collapses.
  const auto profile = trace::profile_by_name("perlbench");
  double oae[2];
  for (int st = 0; st < 2; ++st) {
    auto model = models::make_engine(
        {.model = st ? models::ModelKind::kStbpu : models::ModelKind::kUnprotected});
    trace::SyntheticWorkloadGenerator gen(profile);
    oae[st] = models::replay_engine(*model, gen,
                                    {.max_branches = 300'000, .warmup_branches = 50'000})
                  .oae();
  }
  EXPECT_GT(oae[1] / oae[0], 0.95) << "accuracy within 5% of unprotected";

  auto victim_model = models::make_engine({.model = models::ModelKind::kStbpu});
  const auto spectre =
      attacks::btb_injection_away(*victim_model, 64, 5, 0x0000'1122'3344ULL);
  EXPECT_FALSE(spectre.success) << "...while Spectre v2 is dead";
}

TEST(Integration, FlushModelsPayOnSwitchHeavyWorkloads) {
  // Figure 3's qualitative core on one server workload.
  const auto profile = trace::profile_by_name("apache2_prefork_c256");
  const sim::BpuSimOptions opt{.max_branches = 300'000, .warmup_branches = 50'000};
  double base, ucode, stbpu;
  {
    auto m = models::make_engine({});
    trace::SyntheticWorkloadGenerator gen(profile);
    base = models::replay_engine(*m, gen, opt).oae();
  }
  {
    auto m = models::make_engine({.model = models::ModelKind::kUcode1});
    trace::SyntheticWorkloadGenerator gen(profile);
    ucode = models::replay_engine(*m, gen, opt).oae();
  }
  {
    auto m = models::make_engine({.model = models::ModelKind::kStbpu});
    trace::SyntheticWorkloadGenerator gen(profile);
    stbpu = models::replay_engine(*m, gen, opt).oae();
  }
  EXPECT_LT(ucode / base, 0.93) << "flushing must visibly hurt server workloads";
  EXPECT_GT(stbpu / base, 0.93) << "STBPU must not";
  EXPECT_GT(stbpu, ucode);
}

TEST(Integration, RerandomizationIsRareUnderBenignLoad) {
  // §IV-A: "our analysis indicates that such events are infrequent" — the
  // r = 0.05 thresholds must essentially never fire on benign workloads.
  std::uint64_t total_rerands = 0;
  for (const char* name : {"bwaves", "x264", "nab", "leela"}) {
    auto model = models::make_engine({.model = models::ModelKind::kStbpu});
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name(name));
    (void)models::replay_engine(*model, gen,
                                {.max_branches = 300'000, .warmup_branches = 0});
    total_rerands += models::engine_rerandomizations(*model);
  }
  EXPECT_LE(total_rerands, 8u) << "benign workloads must not thrash the ST";
}

TEST(Integration, HistoryRetentionBeatsFlushingAfterSwitchStorm) {
  // Directly contrast the two protection philosophies: after a burst of
  // context switches, the STBPU process still predicts its own hot branch;
  // the ucode process starts cold every time.
  const bpu::ExecContext a{.pid = 1, .hart = 0, .kernel = false};
  const bpu::ExecContext b{.pid = 2, .hart = 0, .kernel = false};
  for (const auto kind : {models::ModelKind::kUcode1, models::ModelKind::kStbpu}) {
    auto m = models::make_engine({.model = kind});
    unsigned correct = 0;
    for (int round = 0; round < 50; ++round) {
      const auto res = m->access({.ip = 0x1000, .target = 0x9000,
                                  .type = bpu::BranchType::kDirectJump,
                                  .taken = true, .ctx = a});
      if (round > 0 && res.target_correct) ++correct;
      m->on_switch(a, b);
      m->access({.ip = 0x5000, .target = 0x6000,
                 .type = bpu::BranchType::kDirectJump, .taken = true, .ctx = b});
      m->on_switch(b, a);
    }
    if (kind == models::ModelKind::kUcode1) {
      EXPECT_EQ(correct, 0u) << "IBPB: cold after every switch";
    } else {
      EXPECT_EQ(correct, 49u) << "STBPU: history survives switches";
    }
  }
}

}  // namespace
}  // namespace stbpu
