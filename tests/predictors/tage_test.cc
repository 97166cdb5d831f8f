// TAGE-SC-L behaviour: it must learn what its components are for — bias,
// loop trip counts, long-history correlations — and respect isolation.
#include "tage/tage.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bpu/mapping.h"
#include "tage_config_printer.h"
#include "util/rng.h"

namespace stbpu::tage {
namespace {

const bpu::ExecContext kCtx{.pid = 1, .hart = 0, .kernel = false};

class TageTest : public ::testing::TestWithParam<TageConfig> {
 protected:
  TageTest() : pred_(GetParam(), &map_) {}

  double accuracy(const std::function<bool(std::uint64_t)>& oracle,
                  std::uint64_t ip, unsigned iters, unsigned warmup) {
    unsigned correct = 0;
    for (std::uint64_t i = 0; i < iters + warmup; ++i) {
      const bool taken = oracle(i);
      const auto p = pred_.predict(ip, kCtx);
      if (i >= warmup && p.taken == taken) ++correct;
      pred_.update(ip, kCtx, taken, p);
    }
    return static_cast<double>(correct) / iters;
  }

  bpu::BaselineMappingLogic map_;
  TagePredictorT<bpu::BaselineMappingLogic> pred_;
};

TEST_P(TageTest, LearnsStrongBias) {
  EXPECT_GT(accuracy([](std::uint64_t) { return true; }, 0x1000, 500, 16), 0.99);
}

TEST_P(TageTest, LearnsAlternation) {
  EXPECT_GT(accuracy([](std::uint64_t i) { return i % 2 == 0; }, 0x2000, 500, 64),
            0.95);
}

TEST_P(TageTest, LearnsShortLoopExit) {
  // Trip count 7: taken 7x then not-taken. Loop predictor / short history.
  EXPECT_GT(accuracy([](std::uint64_t i) { return i % 8 != 7; }, 0x3000, 800, 200),
            0.95);
}

TEST_P(TageTest, LearnsLongPeriodWithTaggedTables) {
  // Period-24 pattern — beyond a bimodal counter, needs tagged history.
  EXPECT_GT(accuracy([](std::uint64_t i) { return i % 24 < 20; }, 0x4000, 1500, 600),
            0.93);
}

TEST_P(TageTest, RandomIsUnlearnable) {
  util::Xoshiro256 rng(1);
  const double acc =
      accuracy([&rng](std::uint64_t) { return rng.chance(0.5); }, 0x5000, 2000, 200);
  EXPECT_GT(acc, 0.4);
  EXPECT_LT(acc, 0.6);
}

TEST_P(TageTest, HartsHaveSeparateHistories) {
  bpu::ExecContext h0 = kCtx, h1 = kCtx;
  h1.hart = 1;
  // Alternation on hart 0 must still be learnable while hart 1 pushes
  // conflicting random outcomes for a different branch.
  util::Xoshiro256 rng(2);
  unsigned correct = 0, total = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const bool taken = i % 2 == 0;
    const auto p = pred_.predict(0x6000, h0);
    if (i > 500) {
      ++total;
      correct += p.taken == taken;
    }
    pred_.update(0x6000, h0, taken, p);
    const auto q = pred_.predict(0x7770, h1);
    pred_.update(0x7770, h1, rng.chance(0.5), q);
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.90);
}

TEST_P(TageTest, FlushForgets) {
  accuracy([](std::uint64_t) { return true; }, 0x8000, 300, 0);
  pred_.flush();
  const auto p = pred_.predict(0x8000, kCtx);
  EXPECT_FALSE(p.from_tagged) << "no tagged entry may survive a flush";
}

TEST_P(TageTest, TaggedProviderFlagSurfaces) {
  // After enough history-correlated training, predictions should come from
  // tagged tables (the flag ST_TAGE monitors rely on).
  bool saw_tagged = false;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const bool taken = i % 12 < 9;
    const auto p = pred_.predict(0x9000, kCtx);
    saw_tagged |= p.from_tagged;
    pred_.update(0x9000, kCtx, taken, p);
  }
  EXPECT_TRUE(saw_tagged);
}

TEST_P(TageTest, TracksUnconditionalHistory) {
  // track() must advance history without crashing or corrupting state.
  for (int i = 0; i < 200; ++i) {
    pred_.track({.ip = 0xA000u + i * 16, .target = 0xB000,
                 .type = bpu::BranchType::kDirectJump, .taken = true, .ctx = kCtx});
  }
  EXPECT_GT(accuracy([](std::uint64_t) { return true; }, 0xC000, 300, 16), 0.98);
}

INSTANTIATE_TEST_SUITE_P(Configs, TageTest,
                         ::testing::Values(TageConfig::kb8(), TageConfig::kb64()),
                         [](const auto& info) {
                           return std::string(info.param.name.substr(0, 4) == "TAGE"
                                                  ? (info.param.num_tables > 6
                                                         ? "kb64"
                                                         : "kb8")
                                                  : "cfg");
                         });

TEST(TageConfigs, GeometryMatchesTable2) {
  const auto kb8 = TageConfig::kb8();
  EXPECT_EQ(kb8.index_bits, 10u);  // Rt: 10-bit index
  EXPECT_EQ(kb8.tag_bits, 8u);     // 8-bit tag
  const auto kb64 = TageConfig::kb64();
  EXPECT_EQ(kb64.index_bits, 13u);  // 13-bit index
  EXPECT_EQ(kb64.tag_bits, 12u);    // 12-bit tag
  EXPECT_GT(kb64.max_history, kb8.max_history);
}

TEST(TageConfigs, RejectsGeometryBeyondThePackedEntry) {
  // Tags live in a 16-bit field of the packed entry and the table walk's
  // match mask has 32 bits; either limit exceeded, or no tagged table at
  // all, is a named error, the limits themselves are accepted.
  const bpu::BaselineMappingLogic map;
  TageConfig cfg = TageConfig::kb8();
  cfg.index_bits = 4;
  cfg.tag_bits = 17;
  EXPECT_THROW(TagePredictorT<bpu::BaselineMappingLogic>(cfg, &map), std::invalid_argument);
  cfg.tag_bits = 16;
  EXPECT_NO_THROW(TagePredictorT<bpu::BaselineMappingLogic>(cfg, &map));
  cfg.num_tables = 0;
  EXPECT_THROW(TagePredictorT<bpu::BaselineMappingLogic>(cfg, &map), std::invalid_argument);
  cfg.num_tables = 33;
  cfg.max_history = 200;
  EXPECT_THROW(TagePredictorT<bpu::BaselineMappingLogic>(cfg, &map), std::invalid_argument);
  cfg.num_tables = 32;
  TagePredictorT<bpu::BaselineMappingLogic> widest(cfg, &map);
  // The widest geometry still predicts and trains.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto p = widest.predict(0x1000, kCtx);
    widest.update(0x1000, kCtx, i % 3 != 0, p);
  }
}

}  // namespace
}  // namespace stbpu::tage
