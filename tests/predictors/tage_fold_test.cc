// Folded-history correctness — the Rt keys of every TAGE table are built
// from these folds. The incremental circular-shift-register fold maintained
// by HartState::advance must equal, at every point, the from-scratch fold of
// the last L outcomes (closed form: the bit pushed j steps ago contributes
// one bit at position j mod C; the outgoing XOR cancels it exactly at age
// L). Covered across random outcome mixes, unconditional track()s,
// history-ring wrap, flush_hart() resets and context switches.
#include "tage/tage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "bpu/mapping.h"
#include "tage_config_printer.h"
#include "util/rng.h"

namespace stbpu::tage {
namespace {

/// From-scratch fold over the recorded outcome window (newest first).
std::uint32_t fold_scratch(const std::deque<bool>& newest_first, unsigned L,
                           unsigned C) {
  std::uint32_t v = 0;
  const std::size_t n = std::min<std::size_t>(L, newest_first.size());
  for (std::size_t j = 0; j < n; ++j) {
    if (newest_first[j]) v ^= 1u << (j % C);
  }
  return v & ((1u << C) - 1);
}

class TageFoldTest : public ::testing::TestWithParam<TageConfig> {
 protected:
  TageFoldTest() : pred_(GetParam(), &map_) {}

  void step_conditional(unsigned hart, std::uint64_t ip, bool taken,
                        std::uint16_t pid = 1) {
    const bpu::ExecContext ctx{.pid = pid, .hart = static_cast<std::uint8_t>(hart),
                               .kernel = false};
    const auto p = pred_.predict(ip, ctx);
    pred_.update(ip, ctx, taken, p);
    outcomes_[hart & 1].push_front(taken);
  }

  void step_unconditional(unsigned hart, std::uint64_t ip, bool taken) {
    const bpu::ExecContext ctx{.pid = 1, .hart = static_cast<std::uint8_t>(hart),
                               .kernel = false};
    pred_.track({.ip = ip, .target = 0, .type = bpu::BranchType::kDirectJump,
                 .taken = taken, .ctx = ctx});
    // Not-taken unconditionals do not enter the history.
    if (taken) outcomes_[hart & 1].push_front(true);
  }

  void expect_folds_match(unsigned hart, const char* where) {
    const auto& hs = pred_.hart_state(static_cast<std::uint8_t>(hart));
    const TageConfig& cfg = pred_.config();
    for (unsigned t = 0; t < cfg.num_tables; ++t) {
      const unsigned L = pred_.history_lengths()[t];
      EXPECT_EQ(hs.fold_index_value(t),
                fold_scratch(outcomes_[hart & 1], L, cfg.index_bits))
          << where << ": index fold, table " << t;
      EXPECT_EQ(hs.fold_tag_value(t),
                fold_scratch(outcomes_[hart & 1], L, cfg.tag_bits))
          << where << ": tag fold, table " << t;
    }
  }

  bpu::BaselineMappingLogic map_;
  TagePredictorT<bpu::BaselineMappingLogic> pred_;
  std::deque<bool> outcomes_[2];  ///< newest first, per hart
};

TEST_P(TageFoldTest, IncrementalFoldEqualsFromScratchFold) {
  // Random mix of conditionals and unconditionals on both harts — 2000
  // steps wraps the (max_history + 8)-entry ring many times over.
  util::Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const unsigned h = static_cast<unsigned>(rng() & 1);
    const std::uint64_t ip = 0x1000 + (rng() & 0xFFF0);
    if (rng.chance(0.7)) {
      step_conditional(h, ip, rng.chance(0.5));
    } else {
      step_unconditional(h, ip, rng.chance(0.5));
    }
    if (i % 97 == 0) {
      expect_folds_match(0, "walk");
      expect_folds_match(1, "walk");
    }
  }
  expect_folds_match(0, "final");
  expect_folds_match(1, "final");
}

TEST_P(TageFoldTest, FlushHartResetsFolds) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    step_conditional(0, 0x2000 + (rng() & 0xFF0), rng.chance(0.5));
  }
  pred_.flush_hart(0);
  outcomes_[0].clear();
  expect_folds_match(0, "after flush");  // all-zero folds
  // The fold must rebuild correctly from the zeroed ring.
  for (int i = 0; i < 100; ++i) {
    step_conditional(0, 0x3000 + (rng() & 0xFF0), rng.chance(0.5));
  }
  expect_folds_match(0, "after refill");
}

TEST_P(TageFoldTest, ContextSwitchesDoNotPerturbFolds) {
  // Folds are per-hart state; entity churn on one hart must leave the fold
  // stream exactly as a single-entity run would (the predictor's history is
  // not flushed on switches — isolation comes from the ψ keys).
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 600; ++i) {
    const auto pid = static_cast<std::uint16_t>(1 + (i / 37) % 3);
    step_conditional(0, 0x4000 + (rng() & 0xFF0), rng.chance(0.5), pid);
    if (i % 53 == 0) expect_folds_match(0, "churn");
  }
  expect_folds_match(0, "final");
}

INSTANTIATE_TEST_SUITE_P(Configs, TageFoldTest,
                         ::testing::Values(TageConfig::kb8(), TageConfig::kb64()),
                         [](const auto& info) {
                           return std::string(info.param.num_tables > 6 ? "kb64"
                                                                        : "kb8");
                         });

}  // namespace
}  // namespace stbpu::tage
