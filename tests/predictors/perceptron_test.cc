#include "perceptron/perceptron.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bpu/mapping.h"
#include "tage/tage.h"
#include "util/rng.h"

namespace stbpu::perceptron {
namespace {

const bpu::ExecContext kCtx{.pid = 1, .hart = 0, .kernel = false};

class PerceptronTest : public ::testing::Test {
 protected:
  PerceptronTest() : pred_(&map_) {}

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
  PerceptronPredictorT<bpu::BaselineMappingLogic> pred_;
};

TEST_F(PerceptronTest, ThetaFollowsJimenezLin) {
  // θ = ⌊1.93h + 14⌋ for h = 32.
  EXPECT_EQ(pred_.theta(), static_cast<int>(1.93 * 32 + 14));
}

TEST_F(PerceptronTest, LearnsBias) {
  EXPECT_GT(accuracy([](std::uint64_t) { return true; }, 0x1000, 400, 32), 0.99);
}

TEST_F(PerceptronTest, LearnsAlternation) {
  EXPECT_GT(accuracy([](std::uint64_t i) { return i % 2 == 0; }, 0x2000, 600, 128),
            0.97);
}

TEST_F(PerceptronTest, LearnsLinearHistoryFunction) {
  // outcome = history[3] — exactly representable by one weight.
  std::uint64_t hist = 0;
  unsigned correct = 0, total = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const bool taken = (hist >> 3) & 1;
    const auto p = pred_.predict(0x3000, kCtx);
    if (i > 400) {
      ++total;
      correct += p.taken == taken;
    }
    pred_.update(0x3000, kCtx, taken, p);
    hist = (hist << 1) | static_cast<std::uint64_t>(taken);
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.97);
}

TEST_F(PerceptronTest, XorOfHistoryBitsIsHard) {
  // Classic demonstration: branches A and B have independent random
  // outcomes; branch C's outcome is A^B. C appears right after A and B in
  // the global history, so a history-pattern predictor (TAGE) learns it but
  // a linear perceptron cannot (XOR is not linearly separable).
  util::Xoshiro256 rng(11);
  tage::TagePredictorT<bpu::BaselineMappingLogic> tage(tage::TageConfig::kb64(), &map_);
  unsigned p_correct = 0, t_correct = 0, total = 0;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    const bool a = rng.chance(0.5);
    const bool b = rng.chance(0.5);
    const bool c = a != b;
    for (const auto& [ip, taken] : {std::pair<std::uint64_t, bool>{0x4000, a},
                                    {0x4040, b}}) {
      const auto pp = pred_.predict(ip, kCtx);
      pred_.update(ip, kCtx, taken, pp);
      const auto tp = tage.predict(ip, kCtx);
      tage.update(ip, kCtx, taken, tp);
    }
    const auto pp = pred_.predict(0x4080, kCtx);
    const auto tp = tage.predict(0x4080, kCtx);
    if (i > 2000) {
      ++total;
      p_correct += pp.taken == c;
      t_correct += tp.taken == c;
    }
    pred_.update(0x4080, kCtx, c, pp);
    tage.update(0x4080, kCtx, c, tp);
  }
  EXPECT_LT(static_cast<double>(p_correct) / total, 0.75)
      << "perceptron must NOT learn XOR";
  EXPECT_GT(static_cast<double>(t_correct) / total, 0.9)
      << "TAGE pattern tables learn XOR easily";
}

TEST_F(PerceptronTest, WeightsSaturate) {
  // A very long bias run must not overflow weights (they clamp).
  EXPECT_GT(accuracy([](std::uint64_t) { return true; }, 0x5000, 20000, 0), 0.99);
}

/// The perceptron rule spelled out with plain ints: 33 weights per row
/// (bias first), y = w0 + Σ (history bit i ? w[i+1] : −w[i+1]) over the 32
/// newest outcomes, and training that steps each weight by ±1 inside
/// [−128, 127]. The int8-lane predictor must agree with it exactly.
struct ScalarPerceptron {
  static constexpr int kTheta = static_cast<int>(1.93 * 32 + 14);
  std::vector<std::array<int, 33>> w = std::vector<std::array<int, 33>>(1024);
  std::uint64_t ghr = 0;

  int output(std::uint32_t row) const {
    int y = w[row][0];
    for (unsigned i = 0; i < 32; ++i) {
      y += ((ghr >> i) & 1) != 0 ? w[row][i + 1] : -w[row][i + 1];
    }
    return y;
  }
  static void step(int& weight, bool up) {
    if (up && weight < 127) ++weight;
    if (!up && weight > -128) --weight;
  }
  void update(std::uint32_t row, int y, bool taken) {
    if ((y >= 0) != taken || std::abs(y) <= kTheta) {
      step(w[row][0], taken);
      for (unsigned i = 0; i < 32; ++i) step(w[row][i + 1], ((ghr >> i) & 1) == taken);
    }
    ghr = (ghr << 1) | static_cast<std::uint64_t>(taken);
  }
};

TEST_F(PerceptronTest, DotAtTheWeightLimits) {
  // One nonzero weight, on GHR bit 0 (the previous outcome). Under a
  // not-taken bit a weight counts negated: −(−128) = +128, one past the
  // int8 range, and −127 for a 127.
  const std::uint64_t ip = 0x9000, other = 0x9040;
  const std::uint32_t row = map_.perceptron_row(ip, 10, kCtx);
  ASSERT_NE(map_.perceptron_row(other, 10, kCtx), row);
  const auto y_after = [&](bool previous) {
    pred_.update(other, kCtx, previous, pred_.predict(other, kCtx));
    (void)pred_.predict(ip, kCtx);
    return pred_.last_output();
  };
  pred_.debug_set_weight(row, 1, -128);
  EXPECT_EQ(y_after(false), 128);
  EXPECT_EQ(y_after(true), -128);
  pred_.debug_set_weight(row, 1, 127);
  EXPECT_EQ(y_after(false), -127);
  EXPECT_EQ(y_after(true), 127);
}

TEST_F(PerceptronTest, MatchesScalarModelAtTheWeightLimits) {
  // Every weight of a row starts at 127 or −128, then trains on random
  // outcomes: the dot product and the saturating ±1 steps must agree with
  // the int model branch for branch (a wrapped int8 step would show as a
  // 255 jump in y).
  ScalarPerceptron model;
  util::Xoshiro256 rng(0x5A7);
  const std::uint64_t ip = 0x9000;
  const std::uint32_t row = map_.perceptron_row(ip, 10, kCtx);
  for (unsigned round = 0; round < 200; ++round) {
    for (unsigned i = 0; i <= 32; ++i) {
      const int w = rng.chance(0.5) ? 127 : -128;
      model.w[row][i] = w;
      pred_.debug_set_weight(row, i, static_cast<std::int8_t>(w));
    }
    for (unsigned k = 0; k < 40; ++k) {
      const bool taken = rng.chance(0.5);
      const auto p = pred_.predict(ip, kCtx);
      const int y = model.output(row);
      ASSERT_EQ(pred_.last_output(), y) << "round " << round << " branch " << k;
      ASSERT_EQ(p.taken, y >= 0) << "round " << round << " branch " << k;
      pred_.update(ip, kCtx, taken, p);
      model.update(row, y, taken);
    }
  }
}

TEST_F(PerceptronTest, FlushForgets) {
  accuracy([](std::uint64_t) { return true; }, 0x6000, 500, 0);
  pred_.flush();
  // After a flush the dot product is 0 → predicts taken (>=0); train it
  // not-taken and verify it adapts fresh.
  EXPECT_GT(accuracy([](std::uint64_t) { return false; }, 0x6000, 400, 64), 0.98);
}

TEST_F(PerceptronTest, HartsSeparateHistories) {
  bpu::ExecContext h1 = kCtx;
  h1.hart = 1;
  util::Xoshiro256 rng(3);
  unsigned correct = 0, total = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const bool taken = i % 2 == 0;
    const auto p = pred_.predict(0x7000, kCtx);
    if (i > 600) {
      ++total;
      correct += p.taken == taken;
    }
    pred_.update(0x7000, kCtx, taken, p);
    const auto q = pred_.predict(0x8880, h1);
    pred_.update(0x8880, h1, rng.chance(0.5), q);
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.93);
}

}  // namespace
}  // namespace stbpu::perceptron
