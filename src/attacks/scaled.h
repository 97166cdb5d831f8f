// Scaled-geometry mappings + predictors for empirical validation of the
// §VI attack-complexity equations. Attack cost grows with I·T·O (structure
// geometry), so the experiments shrink the BTB, measure misprediction /
// eviction counts, and compare them to Equations (2)-(4) evaluated at the
// same geometry — then the analysis module extrapolates to the full-size
// Skylake numbers of §VI-A5.
#pragma once

#include <memory>
#include <utility>

#include "bpu/direction.h"
#include "bpu/mapping.h"
#include "bpu/predictor.h"
#include "core/monitor.h"
#include "core/remap.h"
#include "core/secret_token.h"
#include "util/bits.h"

namespace stbpu::attacks {

struct ScaledGeometry {
  unsigned set_bits = 4;     ///< I = 2^set_bits
  unsigned tag_bits = 3;     ///< T = 2^tag_bits
  unsigned offset_bits = 1;  ///< O = 2^offset_bits
  unsigned ways = 4;         ///< W

  [[nodiscard]] std::uint64_t sets() const { return 1ULL << set_bits; }
  [[nodiscard]] std::uint64_t tag_space() const { return 1ULL << tag_bits; }
  [[nodiscard]] std::uint64_t offset_space() const { return 1ULL << offset_bits; }
  /// I·T·O — the collision space of one structure.
  [[nodiscard]] std::uint64_t ito() const {
    return sets() * tag_space() * offset_space();
  }
};

/// Legacy mapping at reduced geometry (deterministic truncation/folding).
/// Shadows the baseline's R1; every other function is the baseline's.
class ScaledBaselineMapping final : public bpu::BaselineMappingLogic {
 public:
  explicit ScaledBaselineMapping(const ScaledGeometry& g) : g_(g) {}

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip, const bpu::ExecContext&) const {
    bpu::BtbIndex out;
    out.offset = static_cast<std::uint32_t>(util::bits(ip, 0, g_.offset_bits));
    out.set = static_cast<std::uint32_t>(util::bits(ip, g_.offset_bits, g_.set_bits));
    out.tag = util::fold_xor(
        util::bits(ip, g_.offset_bits + g_.set_bits,
                   kUsedAddressBits - g_.offset_bits - g_.set_bits),
        g_.tag_bits);
    return out;
  }

 private:
  ScaledGeometry g_;
};

/// STBPU mapping at reduced geometry: keyed R1 with narrow outputs and the
/// φ target codec over otherwise baseline functions.
class ScaledStbpuMapping final : public bpu::BaselineMappingLogic {
 public:
  ScaledStbpuMapping(core::STManager* stm, const ScaledGeometry& g) : stm_(stm), g_(g) {}

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip, const bpu::ExecContext& ctx) const {
    return core::Remapper::r1_scaled(stm_->token(ctx).psi, ip, g_.set_bits, g_.tag_bits,
                                     g_.offset_bits);
  }
  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const bpu::ExecContext& ctx) const {
    return util::bits(target, 0, 32) ^ stm_->token(ctx).phi;
  }
  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const bpu::ExecContext& ctx) const {
    const std::uint64_t lo = (stored ^ stm_->token(ctx).phi) & 0xFFFF'FFFFULL;
    return (branch_ip & 0xFFFF'0000'0000ULL) | lo;
  }

 private:
  core::STManager* stm_;
  ScaledGeometry g_;
};

/// An attack target built outside the registered engine arms (the scaled
/// §VI targets, the ablation variants): a CorePredictorT with the SKLCond
/// direction predictor over a one-off mapping, plus the optional token
/// manager and monitor it is wired to.
struct AttackTarget {
  std::unique_ptr<core::STManager> stm;
  std::unique_ptr<core::EventMonitor> monitor;
  /// Owns the mapping `predictor` reads; its type differs per target.
  std::shared_ptr<const void> mapping;
  std::unique_ptr<bpu::IPredictor> predictor;

  /// Build `predictor` over `logic`; `monitor` (if any) must be set first.
  template <class Logic>
  void build(const bpu::CorePredictorConfig& cfg, Logic logic) {
    using Direction = bpu::SklCondPredictorT<Logic>;
    auto m = std::make_shared<const Logic>(std::move(logic));
    mapping = m;
    predictor = std::make_unique<bpu::CorePredictorT<Logic, Direction>>(
        cfg, m.get(), std::make_unique<Direction>(m.get()), monitor.get());
  }
};

/// A scaled-BTB target with either the legacy or the ST mapping (and
/// optionally a live monitor).
inline AttackTarget make_scaled_target(const ScaledGeometry& g, bool stbpu,
                                       std::uint64_t seed,
                                       const core::MonitorConfig* monitor_cfg = nullptr) {
  AttackTarget t;
  bpu::CorePredictorConfig cfg;
  cfg.btb.sets = static_cast<std::uint32_t>(g.sets());
  cfg.btb.ways = g.ways;
  if (stbpu) {
    t.stm = std::make_unique<core::STManager>(seed);
    if (monitor_cfg != nullptr) {
      t.monitor = std::make_unique<core::EventMonitor>(t.stm.get(), *monitor_cfg);
    }
    t.build(cfg, ScaledStbpuMapping(t.stm.get(), g));
  } else {
    t.build(cfg, ScaledBaselineMapping(g));
  }
  return t;
}

}  // namespace stbpu::attacks
