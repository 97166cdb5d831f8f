// Perceptron direction predictor (Jimenez & Lin [29], "PerceptronBP" in the
// paper's gem5 figures). A table of weight vectors selected by Rp under
// STBPU (Table II: 10-bit row), dot-producted with the global history.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "bpu/direction.h"
#include "bpu/mapping.h"
#include "bpu/types.h"
#include "util/bits.h"

namespace stbpu::perceptron {

struct PerceptronConfig {
  unsigned row_bits = 10;       ///< 1024 perceptrons (Table II, Rp: 80 ↦ 10)
  unsigned history_length = 32; ///< GHR bits per dot product
  int weight_max = 127;         ///< 8-bit weights
};

/// Template over the mapping type so the Rp row selection inlines into
/// predict()/update().
template <class Mapping>
class PerceptronPredictorT final {
 public:
  explicit PerceptronPredictorT(const Mapping* mapping,
                                const PerceptronConfig& cfg = {})
      : cfg_(cfg),
        mapping_(mapping),
        // Training threshold θ = ⌊1.93h + 14⌋ (Jimenez & Lin).
        theta_(static_cast<int>(1.93 * cfg.history_length + 14)),
        weights_(std::size_t{1} << cfg.row_bits,
                 std::vector<std::int16_t>(cfg.history_length + 1, 0)) {}

  [[nodiscard]] bpu::DirPrediction predict(std::uint64_t ip,
                                           const bpu::ExecContext& ctx) {
    const std::uint32_t row = mapping_->perceptron_row(ip, cfg_.row_bits, ctx);
    scratch_sum_ = dot(row, ghr_[ctx.hart & 1]);
    return {.taken = scratch_sum_ >= 0, .from_tagged = false};
  }

  void update(std::uint64_t ip, const bpu::ExecContext& ctx, bool taken,
              const bpu::DirPrediction& pred) {
    const std::uint32_t row = mapping_->perceptron_row(ip, cfg_.row_bits, ctx);
    std::uint64_t& ghr = ghr_[ctx.hart & 1];
    // Train on misprediction or weak margin (|y| <= θ).
    if (pred.taken != taken || std::abs(scratch_sum_) <= theta_) {
      auto& w = weights_[row];
      bump(w[0], taken);  // bias weight
      for (unsigned i = 0; i < cfg_.history_length; ++i) {
        const bool hist_bit = (ghr >> i) & 1;
        bump(w[i + 1], hist_bit == taken);
      }
    }
    ghr = (ghr << 1) | static_cast<std::uint64_t>(taken);
  }

  void track(const bpu::BranchRecord& rec) {
    if (rec.taken && is_indirect(rec.type)) {
      ghr_[rec.ctx.hart & 1] = (ghr_[rec.ctx.hart & 1] << 1) | 1u;
    }
  }

  void flush() {
    for (auto& row : weights_) std::fill(row.begin(), row.end(), 0);
    ghr_[0] = ghr_[1] = 0;
  }
  void flush_hart(std::uint8_t hart) { ghr_[hart & 1] = 0; }

  [[nodiscard]] std::string_view name() const { return "PerceptronBP"; }
  [[nodiscard]] int theta() const noexcept { return theta_; }

 private:
  [[nodiscard]] int dot(std::uint32_t row, std::uint64_t ghr) const {
    const auto& w = weights_[row];
    int sum = w[0];
    // Branchless sign-select (w ^ m) - m keeps the loop vectorizable; the
    // result is bit-identical to the ternary form.
    for (unsigned i = 0; i < cfg_.history_length; ++i) {
      const int m = -static_cast<int>((ghr >> i) & 1) ^ -1;  // taken: 0, not: -1
      sum += (static_cast<int>(w[i + 1]) ^ m) - m;
    }
    return sum;
  }

  void bump(std::int16_t& w, bool up) const {
    // Branchless saturate: identical outcomes to the compare-then-step form.
    if (up) {
      w = static_cast<std::int16_t>(w + (w < cfg_.weight_max ? 1 : 0));
    } else {
      w = static_cast<std::int16_t>(w - (w > -cfg_.weight_max - 1 ? 1 : 0));
    }
  }

  PerceptronConfig cfg_;
  const Mapping* mapping_;
  int theta_;
  std::vector<std::vector<std::int16_t>> weights_;
  std::uint64_t ghr_[2] = {0, 0};
  int scratch_sum_ = 0;
};

}  // namespace stbpu::perceptron
