// Model factory wiring and switch-policy semantics of the engine arms.
#include "models/models.h"

#include <gtest/gtest.h>

#include <memory>

#include "models/engine.h"

namespace stbpu::models {
namespace {

const bpu::ExecContext kUserA{.pid = 1, .hart = 0, .kernel = false};
const bpu::ExecContext kUserB{.pid = 2, .hart = 0, .kernel = false};
const bpu::ExecContext kKernelA{.pid = 1, .hart = 0, .kernel = true};

bpu::AccessResult jump(bpu::IPredictor& m, const bpu::ExecContext& ctx, std::uint64_t ip,
                       std::uint64_t target) {
  return m.access({.ip = ip, .target = target, .type = bpu::BranchType::kDirectJump,
                   .taken = true, .ctx = ctx});
}

std::uint64_t policy_flushes(bpu::IPredictor& m) {
  std::uint64_t out = 0;
  visit_engine(m, [&](auto& e) { out = e.policy_flushes(); });
  return out;
}

std::uint64_t btb_capacity(bpu::IPredictor& m) {
  std::uint64_t out = 0;
  visit_engine(m, [&](auto& e) { out = e.core().btb().capacity(); });
  return out;
}

TEST(Models, FactoryBuildsEveryCombination) {
  for (const auto mk : {ModelKind::kUnprotected, ModelKind::kUcode1, ModelKind::kUcode2,
                        ModelKind::kConservative, ModelKind::kStbpu}) {
    for (const auto dk : {DirectionKind::kSklCond, DirectionKind::kTage8,
                          DirectionKind::kTage64, DirectionKind::kPerceptron}) {
      const auto model = make_engine({.model = mk, .direction = dk});
      ASSERT_NE(model, nullptr);
      EXPECT_FALSE(model->name().empty());
      EXPECT_EQ(engine_monitor(*model) != nullptr, mk == ModelKind::kStbpu);
    }
  }
}

TEST(Models, StbpuTageGetsSeparateTaggedRegister) {
  const auto tage = make_engine(
      {.model = ModelKind::kStbpu, .direction = DirectionKind::kTage64});
  EXPECT_GT(engine_monitor(*tage)->config().tagged_misprediction_threshold, 0u);
  const auto skl = make_engine(
      {.model = ModelKind::kStbpu, .direction = DirectionKind::kSklCond});
  EXPECT_EQ(engine_monitor(*skl)->config().tagged_misprediction_threshold, 0u)
      << "ST_SKLCond has no separate TAGE-table register (paper §VII-B2)";
}

TEST(Models, UnprotectedRetainsAcrossContextSwitch) {
  auto m = make_engine({.model = ModelKind::kUnprotected});
  jump(*m, kUserA, 0x1000, 0x9000);
  m->on_switch(kUserA, kUserB);
  m->on_switch(kUserB, kUserA);
  EXPECT_TRUE(jump(*m, kUserA, 0x1000, 0x9000).target_correct);
}

TEST(Models, Ucode1FlushesOnContextSwitch) {
  auto m = make_engine({.model = ModelKind::kUcode1});
  jump(*m, kUserA, 0x1000, 0x9000);
  m->on_switch(kUserA, kUserB);  // IBPB
  EXPECT_EQ(policy_flushes(*m), 1u);
  m->on_switch(kUserB, kUserA);
  EXPECT_FALSE(jump(*m, kUserA, 0x1000, 0x9000).target_correct)
      << "IBPB discards the branch history on a context switch";
}

TEST(Models, Ucode1KernelEntryFlushesIndirectOnly) {
  auto m = make_engine({.model = ModelKind::kUcode1});
  jump(*m, kUserA, 0x1000, 0x9000);  // direct entry
  m->on_switch(kUserA, kKernelA);    // IBRS on kernel entry
  EXPECT_EQ(policy_flushes(*m), 1u);
  m->on_switch(kKernelA, kUserA);    // kernel exit: no flush
  EXPECT_EQ(policy_flushes(*m), 1u);
  EXPECT_TRUE(jump(*m, kUserA, 0x1000, 0x9000).target_correct)
      << "direct-branch targets survive IBRS";
}

TEST(Models, StbpuRetainsAcrossSwitches) {
  auto m = make_engine({.model = ModelKind::kStbpu});
  jump(*m, kUserA, 0x1000, 0x9000);
  m->on_switch(kUserA, kUserB);
  jump(*m, kUserB, 0x5000, 0x6000);
  m->on_switch(kUserB, kUserA);
  EXPECT_TRUE(jump(*m, kUserA, 0x1000, 0x9000).target_correct)
      << "ST reload preserves usable history (no flush)";
  EXPECT_EQ(policy_flushes(*m), 0u);
}

TEST(Models, ConservativeStoresFullTags) {
  auto m = make_engine({.model = ModelKind::kConservative});
  // The 2^30 alias that fools the baseline must NOT hit in conservative.
  jump(*m, kUserA, 0x1000, 0x9000);
  const auto res = jump(*m, kUserA, 0x1000 + (1ULL << 30), 0x8000);
  EXPECT_FALSE(res.pred.target_valid && res.pred.target == 0x9000u)
      << "full 48-bit tags eliminate truncation aliases";
}

TEST(Models, ConservativeHasReducedCapacity) {
  auto m = make_engine({.model = ModelKind::kConservative});
  EXPECT_EQ(btb_capacity(*m), 128u * 8u)
      << "hardware-budget-neutral entry reduction";
  auto b = make_engine({.model = ModelKind::kUnprotected});
  EXPECT_EQ(btb_capacity(*b), 512u * 8u);
}

TEST(Models, ConservativeRebuildsFarTargets) {
  auto m = make_engine({.model = ModelKind::kConservative});
  // Full 48-bit targets: a branch and target in different 4GB regions.
  const std::uint64_t branch = 0x7FFF'0000'1000ULL;
  const std::uint64_t target = 0x0000'2345'9000ULL;
  jump(*m, kUserA, branch, target);
  EXPECT_TRUE(jump(*m, kUserA, branch, target).target_correct);
}

TEST(Models, Ucode2PartitionsByHart) {
  auto m = make_engine({.model = ModelKind::kUcode2});
  bpu::ExecContext h1 = kUserA;
  h1.hart = 1;
  jump(*m, kUserA, 0x1000, 0x9000);
  const auto res = jump(*m, h1, 0x1000, 0x9000);
  EXPECT_FALSE(res.pred.target_valid && res.pred.target == 0x9000u)
      << "STIBP: SMT siblings must not share indirect predictions";
}

TEST(Models, NamesAreDescriptive) {
  EXPECT_EQ(to_string(ModelKind::kStbpu), "STBPU");
  EXPECT_EQ(to_string(DirectionKind::kTage8), "TAGE_SC_L_8KB");
  const auto m = make_engine(
      {.model = ModelKind::kStbpu, .direction = DirectionKind::kPerceptron});
  EXPECT_NE(m->name().find("STBPU"), std::string::npos);
  EXPECT_NE(m->name().find("PerceptronBP"), std::string::npos);
}

TEST(Models, DifficultyFactorPropagates) {
  ModelSpec spec{.model = ModelKind::kStbpu};
  spec.rerand_difficulty_r = 0.1;
  const auto m = make_engine(spec);
  EXPECT_EQ(engine_monitor(*m)->config().misprediction_threshold, 83'800u);
}

}  // namespace
}  // namespace stbpu::models
