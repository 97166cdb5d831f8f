// Perceptron direction predictor (Jimenez & Lin [29], "PerceptronBP" in the
// paper's gem5 figures). A table of weight vectors selected by Rp under
// STBPU (Table II: 10-bit row), dot-producted with the global history.
//
// Each row's 32 history weights are 8-bit lanes of two 16-byte GCC vectors
// (the idiom sim/cache.h uses), so a dot product is a handful of vector
// operations and training is one masked ±1 step per vector. Weights
// saturate at 127 / −128, the int8 range, so the lanes are exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "bpu/direction.h"
#include "bpu/mapping.h"
#include "bpu/types.h"
#include "util/bits.h"

namespace stbpu::perceptron {

struct PerceptronConfig {
  unsigned row_bits = 10;  ///< 1024 perceptrons (Table II, Rp: 80 ↦ 10)
};

/// Template over the mapping type so the Rp row selection inlines into
/// predict()/update().
template <class Mapping>
class PerceptronPredictorT final {
 public:
  static constexpr unsigned kHistoryLength = 32;  ///< GHR bits per dot product

  explicit PerceptronPredictorT(const Mapping* mapping,
                                const PerceptronConfig& cfg = {})
      : cfg_(cfg),
        mapping_(mapping),
        // Training threshold θ = ⌊1.93h + 14⌋ (Jimenez & Lin).
        theta_(static_cast<int>(1.93 * kHistoryLength + 14)),
        rows_(std::size_t{1} << cfg.row_bits, Row{}),
        bias_(std::size_t{1} << cfg.row_bits, 0) {}

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
      std::int8_t& b = bias_[row];
      if (taken ? b < 127 : b > -128) b = static_cast<std::int8_t>(taken ? b + 1 : b - 1);
      // Each history weight steps toward agreement: up where its history
      // bit equals the outcome, down elsewhere.
      const Masks m = history_masks(ghr);
      for (unsigned h = 0; h < 2; ++h) bump(rows_[row].w[h], taken ? m.m[h] : ~m.m[h]);
    }
    ghr = (ghr << 1) | static_cast<std::uint64_t>(taken);
  }

  void track(const bpu::BranchRecord& rec) {
    if (rec.taken && is_indirect(rec.type)) {
      ghr_[rec.ctx.hart & 1] = (ghr_[rec.ctx.hart & 1] << 1) | 1u;
    }
  }

  void flush() {
    std::fill(rows_.begin(), rows_.end(), Row{});
    std::fill(bias_.begin(), bias_.end(), 0);
    ghr_[0] = ghr_[1] = 0;
  }
  void flush_hart(std::uint8_t hart) { ghr_[hart & 1] = 0; }

  [[nodiscard]] std::string_view name() const { return "PerceptronBP"; }
  [[nodiscard]] int theta() const noexcept { return theta_; }
  /// The output y of the last predict(): its sign is the prediction and
  /// |y| the margin update() compares with θ.
  [[nodiscard]] int last_output() const noexcept { return scratch_sum_; }

  /// Test hook: set weight `i` of perceptron `row` (0 is the bias, i >= 1
  /// weighs GHR bit i − 1), so tests can start from the int8 limits.
  void debug_set_weight(std::uint32_t row, unsigned i, std::int8_t w) {
    if (i == 0) {
      bias_[row] = w;
    } else {
      rows_[row].w[(i - 1) / 16][(i - 1) % 16] = w;
    }
  }

 private:
  /// Sixteen int8 weights, or sixteen lane masks (−1 / 0).
  using Lanes = std::int8_t __attribute__((vector_size(16)));
  /// The same sixteen lanes widened to int16 for summing.
  using Wide = std::int16_t __attribute__((vector_size(32)));
  /// Lane i of m[h] is −1 when GHR bit 16h + i is set (taken), else 0.
  struct Masks {
    Lanes m[2];
  };

  /// History weights 1..32 of one perceptron: lane i of w[h] weighs GHR
  /// bit 16h + i (bit 0 = the newest outcome).
  struct Row {
    Lanes w[2] = {};
  };

  [[nodiscard]] static Masks history_masks(std::uint64_t ghr) noexcept {
    const Lanes bit = {1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128};
    Masks out;
    for (unsigned h = 0; h < 2; ++h) {
      // Bytes 0-7 repeat GHR byte 2h, bytes 8-15 GHR byte 2h + 1.
      const std::uint64_t rep[2] = {((ghr >> (16 * h)) & 0xFF) * 0x0101010101010101ULL,
                                    ((ghr >> (16 * h + 8)) & 0xFF) * 0x0101010101010101ULL};
      Lanes bytes;
      std::memcpy(&bytes, rep, sizeof(bytes));
      out.m[h] = (bytes & bit) == bit;
    }
    return out;
  }

  [[nodiscard]] int dot(std::uint32_t row, std::uint64_t ghr) const {
    const Masks m = history_masks(ghr);
    // Σ (taken ? w : −w) = 2·Σ(w & taken-mask) − Σw, summed in int16 lanes
    // (32 weights of magnitude ≤ 128 cannot overflow them).
    Wide acc = {};
    for (unsigned h = 0; h < 2; ++h) {
      const Lanes w = rows_[row].w[h];
      const Wide taken = __builtin_convertvector(w & m.m[h], Wide);
      acc += taken + taken - __builtin_convertvector(w, Wide);
    }
    int sum = bias_[row];
    for (unsigned i = 0; i < 16; ++i) sum += acc[i];
    return sum;
  }

  /// One ±1 step per lane: up where `up` is −1, down elsewhere, except
  /// where the weight already sits at that end of the int8 range.
  static void bump(Lanes& w, Lanes up) noexcept {
    const Lanes stuck = (up & (w == 127)) | (~up & (w == -128));
    w += (~up | 1) & ~stuck;
  }

  PerceptronConfig cfg_;
  const Mapping* mapping_;
  int theta_;
  std::vector<Row> rows_;
  std::vector<std::int8_t> bias_;
  std::uint64_t ghr_[2] = {0, 0};
  int scratch_sum_ = 0;
};

}  // namespace stbpu::perceptron
