// CorePredictor behaviour: direction learning, target caching, RSB return
// prediction, mode-2 indirect prediction, event generation, flush scopes.
#include "bpu/predictor.h"

#include <gtest/gtest.h>

#include "bpu/direction.h"
#include "bpu/mapping.h"

namespace stbpu::bpu {
namespace {

const ExecContext kCtx{.pid = 1, .hart = 0, .kernel = false};

class CorePredictorTest : public ::testing::Test {
 protected:
  CorePredictorTest()
      : core_({}, &mapping_, std::make_unique<SklCondPredictor>(&mapping_)) {}

  AccessResult run(std::uint64_t ip, BranchType type, bool taken, std::uint64_t target,
                   const ExecContext& ctx = kCtx) {
    return core_.access({.ip = ip, .target = target, .type = type, .taken = taken,
                         .ctx = ctx});
  }

  BaselineMapping mapping_;
  CorePredictor core_;
};

TEST_F(CorePredictorTest, LearnsDirectJumpTarget) {
  const auto first = run(0x1000, BranchType::kDirectJump, true, 0x9000);
  EXPECT_FALSE(first.target_correct) << "cold BTB cannot know the target";
  const auto second = run(0x1000, BranchType::kDirectJump, true, 0x9000);
  EXPECT_TRUE(second.target_correct);
  EXPECT_TRUE(second.overall_correct);
}

TEST_F(CorePredictorTest, LearnsConditionalDirection) {
  // Train taken thrice — the hybrid PHT must converge.
  for (int i = 0; i < 3; ++i) run(0x2000, BranchType::kConditional, true, 0x2800);
  const auto res = run(0x2000, BranchType::kConditional, true, 0x2800);
  EXPECT_TRUE(res.direction_correct);
  EXPECT_TRUE(res.pred.taken);
}

TEST_F(CorePredictorTest, NotTakenConditionalNeedsNoTarget) {
  for (int i = 0; i < 3; ++i) run(0x2000, BranchType::kConditional, false, 0x2800);
  const auto res = run(0x2000, BranchType::kConditional, false, 0x2800);
  EXPECT_TRUE(res.overall_correct);
  EXPECT_FALSE(res.pred.taken);
}

TEST_F(CorePredictorTest, TakenConditionalNeedsTargetToo) {
  // Direction learned but BTB never sees the target (first taken run
  // trains it, so check the very first access).
  const auto res = run(0x3000, BranchType::kConditional, true, 0x3800);
  EXPECT_FALSE(res.overall_correct) << "OAE: direction AND target required";
}

TEST_F(CorePredictorTest, ReturnPredictedThroughRsb) {
  run(0x4000, BranchType::kDirectCall, true, 0x8000);
  const auto ret = run(0x8080, BranchType::kReturn, true, 0x4000 + kBranchInstrLen);
  EXPECT_TRUE(ret.target_correct);
  EXPECT_FALSE(ret.rsb_underflow);
}

TEST_F(CorePredictorTest, NestedCallsUnwindInOrder) {
  run(0x4000, BranchType::kDirectCall, true, 0x8000);
  run(0x8040, BranchType::kDirectCall, true, 0x9000);
  const auto r1 = run(0x9080, BranchType::kReturn, true, 0x8040 + kBranchInstrLen);
  EXPECT_TRUE(r1.target_correct);
  const auto r2 = run(0x8080, BranchType::kReturn, true, 0x4000 + kBranchInstrLen);
  EXPECT_TRUE(r2.target_correct);
}

TEST_F(CorePredictorTest, RsbUnderflowReported) {
  const auto res = run(0x9080, BranchType::kReturn, true, 0x1234);
  EXPECT_TRUE(res.rsb_underflow);
}

TEST_F(CorePredictorTest, RsbIsPerHart) {
  ExecContext h0 = kCtx;
  ExecContext h1 = kCtx;
  h1.hart = 1;
  run(0x4000, BranchType::kDirectCall, true, 0x8000, h0);
  // Hart 1's return cannot consume hart 0's RSB entry.
  const auto res = run(0x8080, BranchType::kReturn, true, 0x4004, h1);
  EXPECT_TRUE(res.rsb_underflow);
}

TEST_F(CorePredictorTest, IndirectLearnsTargetWithStableHistory) {
  // With a repeating history context, mode 2 should learn the target.
  for (int rep = 0; rep < 4; ++rep) {
    // Fixed history walk.
    for (int i = 0; i < 30; ++i) {
      run(0x6000 + i * 16, BranchType::kDirectJump, true, 0x6000 + i * 16 + 16);
    }
    run(0x7000, BranchType::kIndirectJump, true, 0xAAA0);
  }
  for (int i = 0; i < 30; ++i) {
    run(0x6000 + i * 16, BranchType::kDirectJump, true, 0x6000 + i * 16 + 16);
  }
  const auto res = run(0x7000, BranchType::kIndirectJump, true, 0xAAA0);
  EXPECT_TRUE(res.target_correct);
}

TEST_F(CorePredictorTest, EvictionEventFiresWhenSetOverflows) {
  // 9 branches with identical set+offset bits but different tags (tag is a
  // fold of bits 14..29) overflow the 8-way set.
  bool evicted = false;
  for (unsigned i = 0; i < 9; ++i) {
    const std::uint64_t ip = 0x1000 | (std::uint64_t{i} << 14);
    const auto res = run(ip, BranchType::kDirectJump, true, 0x9000);
    evicted |= res.btb_eviction;
  }
  EXPECT_TRUE(evicted);
}

TEST_F(CorePredictorTest, EventSinkReceivesEvents) {
  struct CountingSink final : IEventSink {
    unsigned misp = 0, evict = 0;
    void on_misprediction(const ExecContext&, bool) override { ++misp; }
    void on_btb_eviction(const ExecContext&) override { ++evict; }
  } sink;
  core_.set_event_sink(&sink);
  run(0x1000, BranchType::kDirectJump, true, 0x9000);  // cold miss
  EXPECT_EQ(sink.misp, 1u);
  run(0x1000, BranchType::kDirectJump, true, 0x9000);  // now correct
  EXPECT_EQ(sink.misp, 1u);
  for (unsigned i = 0; i < 9; ++i) {
    run(0x1000 | (std::uint64_t{i} << 14), BranchType::kDirectJump, true, 0x9000);
  }
  EXPECT_GT(sink.evict, 0u);
}

TEST_F(CorePredictorTest, FlushForgetsEverything) {
  run(0x1000, BranchType::kDirectJump, true, 0x9000);
  core_.flush();
  const auto res = run(0x1000, BranchType::kDirectJump, true, 0x9000);
  EXPECT_FALSE(res.target_correct);
}

TEST_F(CorePredictorTest, FlushTargetsKeepsDirectEntries) {
  run(0x1000, BranchType::kDirectJump, true, 0x9000);
  core_.flush_targets();  // IBRS: only indirect state goes
  const auto res = run(0x1000, BranchType::kDirectJump, true, 0x9000);
  EXPECT_TRUE(res.target_correct) << "direct targets survive an IBRS barrier";
}

TEST_F(CorePredictorTest, FlushTargetsDropsRsb) {
  run(0x4000, BranchType::kDirectCall, true, 0x8000);
  core_.flush_targets();
  const auto ret = run(0x8080, BranchType::kReturn, true, 0x4004);
  EXPECT_TRUE(ret.rsb_underflow);
}

TEST_F(CorePredictorTest, PredictOnlyDoesNotTrain) {
  const BranchRecord rec{.ip = 0x1000, .target = 0x9000,
                         .type = BranchType::kDirectJump, .taken = true, .ctx = kCtx};
  (void)core_.predict_only(rec);
  // Still cold: a real access must see a target miss.
  const auto res = core_.access(rec);
  EXPECT_FALSE(res.target_correct);
}

TEST_F(CorePredictorTest, PredictOnlyDoesNotPopRsb) {
  run(0x4000, BranchType::kDirectCall, true, 0x8000);
  const BranchRecord ret{.ip = 0x8080, .target = 0x4004,
                         .type = BranchType::kReturn, .taken = true, .ctx = kCtx};
  (void)core_.predict_only(ret);
  EXPECT_EQ(core_.rsb(0).depth(), 1u);
}

TEST(SklCondPredictorHarts, HartAboveOneAliasesHartOne) {
  // The predictor keeps two per-hart GHRs; every per-hart index masks the
  // hart with & 1. An update on hart 3 must therefore leave exactly the
  // state an update on hart 1 leaves, never write past the GHR array.
  BaselineMapping mapping;
  SklCondPredictor high(&mapping), one(&mapping);
  const ExecContext ctx3{.pid = 1, .hart = 3, .kernel = false};
  const ExecContext ctx1{.pid = 1, .hart = 1, .kernel = false};
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t ip = 0x4000 + (i % 7) * 0x40;
    const bool taken = (i % 3) != 0;
    const DirPrediction p3 = high.predict(ip, ctx3);
    const DirPrediction p1 = one.predict(ip, ctx1);
    ASSERT_EQ(p3.taken, p1.taken) << i;
    high.update(ip, ctx3, taken, p3);
    one.update(ip, ctx1, taken, p1);
  }
  EXPECT_EQ(high.ghr_value(1), one.ghr_value(1));
  EXPECT_EQ(high.ghr_value(3), one.ghr_value(1));
  EXPECT_EQ(high.ghr_value(0), 0u);
  EXPECT_NE(one.ghr_value(1), 0u);
  for (std::uint32_t i = 0; i < one.pht().entries(); ++i) {
    ASSERT_EQ(high.pht().raw(i), one.pht().raw(i)) << i;
  }
}

}  // namespace
}  // namespace stbpu::bpu
