// Shared branch-prediction statistics, including the paper's OAE metric
// (§VII-B1): a branch counts as correctly predicted only if *all* necessary
// predictions (direction and target) were correct.
#pragma once

#include <cstdint>

#include "bpu/types.h"

namespace stbpu::sim {

struct BranchStats {
  std::uint64_t branches = 0;
  std::uint64_t conditionals = 0;
  std::uint64_t direction_correct = 0;
  std::uint64_t needs_target = 0;  ///< taken branches (a target was required)
  std::uint64_t target_correct = 0;
  std::uint64_t oae_correct = 0;
  std::uint64_t mispredictions = 0;  ///< OAE-incorrect accesses
  std::uint64_t btb_evictions = 0;
  std::uint64_t rsb_underflows = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t mode_switches = 0;

  void absorb(const bpu::BranchRecord& rec, const bpu::AccessResult& res) {
    ++branches;
    if (rec.type == bpu::BranchType::kConditional) {
      ++conditionals;
      if (res.direction_correct) ++direction_correct;
    }
    if (rec.taken) {
      ++needs_target;
      if (res.target_correct && res.direction_correct) ++target_correct;
    }
    if (res.overall_correct) {
      ++oae_correct;
    } else {
      ++mispredictions;
    }
    if (res.btb_eviction) ++btb_evictions;
    if (res.rsb_underflow) ++rsb_underflows;
  }

  /// Overall accuracy effective (OAE).
  [[nodiscard]] double oae() const {
    return branches == 0 ? 0.0
                         : static_cast<double>(oae_correct) / static_cast<double>(branches);
  }
  [[nodiscard]] double direction_rate() const {
    return conditionals == 0 ? 1.0
                             : static_cast<double>(direction_correct) /
                                   static_cast<double>(conditionals);
  }
  [[nodiscard]] double target_rate() const {
    return needs_target == 0 ? 1.0
                             : static_cast<double>(target_correct) /
                                   static_cast<double>(needs_target);
  }

  /// Field-wise equality — equivalence tests assert full stat identity,
  /// not just headline rates.
  friend bool operator==(const BranchStats&, const BranchStats&) = default;

  BranchStats& operator+=(const BranchStats& o) {
    branches += o.branches;
    conditionals += o.conditionals;
    direction_correct += o.direction_correct;
    needs_target += o.needs_target;
    target_correct += o.target_correct;
    oae_correct += o.oae_correct;
    mispredictions += o.mispredictions;
    btb_evictions += o.btb_evictions;
    rsb_underflows += o.rsb_underflows;
    context_switches += o.context_switches;
    mode_switches += o.mode_switches;
    return *this;
  }
};

}  // namespace stbpu::sim
