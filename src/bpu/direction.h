// Direction-predictor abstraction and the Skylake-like conditional
// predictor ("SKLCond" in the paper's gem5 figures): a single shared 16K
// PHT addressed in 1-level and 2-level (gshare) modes with a small choice
// mechanism deciding which mode to trust per branch.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bpu/history.h"
#include "bpu/mapping.h"
#include "bpu/pht.h"
#include "bpu/types.h"
#include "util/saturating_counter.h"

namespace stbpu::bpu {

struct DirPrediction {
  bool taken = false;
  bool from_tagged = false;  ///< tagged TAGE component supplied the prediction
};

/// Interface all conditional-direction predictors implement (SKLCond, TAGE
/// variants, Perceptron). Implementations own their internal histories,
/// per hardware thread where the real structures are per-thread.
class IDirectionPredictor {
 public:
  virtual ~IDirectionPredictor() = default;
  [[nodiscard]] virtual DirPrediction predict(std::uint64_t ip, const ExecContext& ctx) = 0;
  virtual void update(std::uint64_t ip, const ExecContext& ctx, bool taken,
                      const DirPrediction& pred) = 0;
  /// Observe a non-conditional control transfer (for path histories).
  virtual void track(const BranchRecord& rec) { (void)rec; }
  virtual void flush() = 0;
  /// Flush only per-hart state (STIBP-style isolation needs this).
  virtual void flush_hart(std::uint8_t hart) { (void)hart; flush(); }
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// The baseline conditional predictor of §II-A. Hybrid of:
///  * 1-level mode: PHT indexed by function 3 (address only);
///  * 2-level mode: PHT indexed by function 4 (address hashed with GHR);
///  * a per-branch choice table steering between the modes.
/// Both modes share one physical 16K counter array (paper: "two distinct
/// modes of addressing" of a single table), so cross-mode aliasing exists.
///
/// Template over the mapping type: with a concrete final mapping class the
/// four index computations per branch inline into predict()/update().
template <class Mapping = MappingProvider>
class SklCondPredictorT final : public IDirectionPredictor {
 public:
  static constexpr unsigned kChoiceBits = 12;  // 4K-entry choice table
  static constexpr unsigned kGhrBits = 18;

  explicit SklCondPredictorT(const Mapping* mapping)
      : mapping_(mapping), pht_(1u << 14), choice_(1u << kChoiceBits) {
    for (auto& g : ghr_) g = GlobalHistoryRegister{kGhrBits};
  }

  [[nodiscard]] DirPrediction predict(std::uint64_t ip, const ExecContext& ctx) override {
    const auto [i1, i2, ci] = indexes(ip, ctx);
    if constexpr (RemapAwareMapping<Mapping>) {
      // Stash the indexes for the paired update() of the same branch: ψ is
      // stable until the access ends, so the R3/R4 values cannot change
      // between the two phases (TAGE relies on the same pairing contract).
      scratch_ = {i1, i2, ci};
      scratch_ip_ = ip;
      scratch_hart_ = ctx.hart;
      scratch_valid_ = true;
    }
    const bool use_2level = choice_[ci].taken();
    const bool taken = pht_.predict(use_2level ? i2 : i1);
    return {.taken = taken, .from_tagged = false};
  }

  void update(std::uint64_t ip, const ExecContext& ctx, bool taken,
              const DirPrediction&) override {
    const auto [i1, i2, ci] = update_indexes(ip, ctx);
    const bool p1 = pht_.predict(i1);
    const bool p2 = pht_.predict(i2);
    // Train the chosen entry always; reinforce the unchosen entry only when
    // it was already correct (training the loser would let a cold 2-level
    // entry shadow a well-trained base counter and thrash the shared array).
    const bool use_2level = choice_[ci].taken();
    pht_.update(use_2level ? i2 : i1, taken);
    if (p1 != p2) {
      // Steer the choice toward whichever mode was correct.
      if (p2 == taken) {
        choice_[ci].increment();
      } else {
        choice_[ci].decrement();
      }
      // The correct-but-unchosen entry keeps learning; the wrong one is
      // left alone.
      const std::uint32_t other = use_2level ? i1 : i2;
      const bool other_pred = use_2level ? p1 : p2;
      if (other_pred == taken) pht_.update(other, taken);
    }
    ghr_[ctx.hart & 1].push(taken);
  }

  void flush() override {
    pht_.flush();
    for (auto& c : choice_) c = util::SaturatingCounter<2>{};
    for (auto& g : ghr_) g.clear();
  }

  void flush_hart(std::uint8_t hart) override { ghr_[hart & 1].clear(); }

  [[nodiscard]] std::string_view name() const override { return "SKLCond"; }

  [[nodiscard]] const PatternHistoryTable& pht() const noexcept { return pht_; }
  [[nodiscard]] std::uint64_t ghr_value(std::uint8_t hart) const noexcept {
    return ghr_[hart & 1].value();
  }

 private:
  struct Indexes {
    std::uint32_t i1, i2, ci;
  };

  /// update()'s view of the indexes: reuse predict()'s stash when the
  /// mapping is remap-aware and this is the paired call (same branch, same
  /// hart, GHR untouched in between); recompute otherwise — identical
  /// values either way, R functions being pure between re-keys.
  [[nodiscard]] Indexes update_indexes(std::uint64_t ip, const ExecContext& ctx) {
    if constexpr (RemapAwareMapping<Mapping>) {
      if (scratch_valid_ && scratch_ip_ == ip && scratch_hart_ == ctx.hart) {
        scratch_valid_ = false;
        return scratch_;
      }
    }
    return indexes(ip, ctx);
  }
  [[nodiscard]] Indexes indexes(std::uint64_t ip, const ExecContext& ctx) const {
    const std::uint32_t i1 = mapping_->pht_index_1level(ip, ctx);
    const std::uint32_t i2 = mapping_->pht_index_2level(ip, ghr_[ctx.hart & 1].value(), ctx);
    // Choice is addressed through the (remapped) 1-level index so STBPU
    // randomizes it too.
    const std::uint32_t ci = i1 & ((1u << kChoiceBits) - 1);
    return {i1, i2, ci};
  }

  const Mapping* mapping_;
  PatternHistoryTable pht_;
  std::vector<util::SaturatingCounter<2>> choice_;
  GlobalHistoryRegister ghr_[2];
  Indexes scratch_{};  ///< predict→update index stash (remap-aware only)
  std::uint64_t scratch_ip_ = 0;
  std::uint8_t scratch_hart_ = 0;
  bool scratch_valid_ = false;
};

/// Legacy dynamic-dispatch instantiation.
using SklCondPredictor = SklCondPredictorT<>;

}  // namespace stbpu::bpu
