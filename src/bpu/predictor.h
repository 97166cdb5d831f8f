// CorePredictorT — the full BPU of Figure 1: a direction predictor
// (SKLCond / TAGE-SC-L / Perceptron), the BTB with its two addressing
// modes, the per-hart RSB and BHB, all wired through a mapping so the
// identical prediction machinery runs unprotected (BaselineMappingLogic),
// conservatively, or secured (the STBPU mapping). Every access reports the
// events STBPU's MSRs monitor.
//
// The predictor is a template over the mapping and direction types: every
// mapping and direction call resolves at compile time and inlines into the
// access loop. The one virtual seam is IPredictor, the per-branch entry
// point the simulators, the attack harness and the engine factory
// (models/engine.h) hand around.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "bpu/btb.h"
#include "bpu/direction.h"
#include "bpu/history.h"
#include "bpu/mapping.h"
#include "bpu/rsb.h"
#include "bpu/types.h"

namespace stbpu::bpu {

/// All branch instructions in the synthetic ISA are 4 bytes, so a call at
/// `ip` returns to `ip + kBranchInstrLen`. The trace generator honours this.
inline constexpr std::uint64_t kBranchInstrLen = 4;

/// Top-level predictor interface consumed by the simulators, the secure
/// model wrappers and the attack framework.
class IPredictor {
 public:
  virtual ~IPredictor() = default;

  /// Predict + resolve + train for one dynamic branch. Returns the
  /// prediction made and the events it generated.
  virtual AccessResult access(const BranchRecord& rec) = 0;

  /// Called by the simulator when the running context changes (context
  /// switch when pid changes, mode switch when kernel bit changes). The
  /// microcode/conservative models flush here; STBPU reloads the ST
  /// register implicitly (it keys every mapping call by context).
  virtual void on_switch(const ExecContext& from, const ExecContext& to) {
    (void)from;
    (void)to;
  }

  virtual void flush() = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

struct CorePredictorConfig {
  BtbConfig btb{};
};

/// The RSB, like the BHB, is per hardware thread: real SMT parts
/// statically partition it.
template <class Mapping, class Direction>
class CorePredictorT final : public IPredictor {
 public:
  CorePredictorT(const CorePredictorConfig& cfg, const Mapping* mapping,
                 std::unique_ptr<Direction> direction, IEventSink* sink = nullptr)
      : mapping_(mapping),
        direction_(std::move(direction)),
        sink_(sink ? sink : &null_sink_),
        btb_(cfg.btb) {}

  AccessResult access(const BranchRecord& rec) override;
  void flush() override;
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Flush only shared target structures (IBRS-style partial flush).
  void flush_targets();
  /// Flush the per-hart state of one hardware thread.
  void flush_hart(std::uint8_t hart);

  [[nodiscard]] Direction& direction() noexcept { return *direction_; }
  [[nodiscard]] BranchTargetBuffer& btb() noexcept { return btb_; }
  [[nodiscard]] ReturnStackBuffer& rsb(std::uint8_t hart) noexcept {
    return rsb_[hart & 1];
  }
  [[nodiscard]] std::uint64_t bhb_value(std::uint8_t hart) const noexcept {
    return bhb_[hart & 1].value();
  }
  void set_event_sink(IEventSink* sink) noexcept { sink_ = sink ? sink : &null_sink_; }
  void set_name(std::string_view name) { name_ = name; }

  /// The prediction half of access(), without any state change other than
  /// the RSB pop it models; exposed for the OoO front end.
  [[nodiscard]] Prediction predict_only(const BranchRecord& rec) const;

 private:
  struct TargetPrediction {
    bool valid = false;
    std::uint64_t target = 0;
    bool rsb_underflow = false;
  };

  [[nodiscard]] BtbIndex mode2_index(std::uint64_t ip, const ExecContext& ctx) const;
  TargetPrediction predict_target(const BranchRecord& rec, bool pop_rsb);
  void train_target(const BranchRecord& rec, AccessResult& res);

  /// R1 for `ip`, reused across the predict/train phases of one access when
  /// the mapping is remap-aware (R outputs are pure until the monitor fires
  /// at the end of the access, so the value cannot go stale mid-access).
  /// Non-aware mappings recompute every time.
  [[nodiscard]] BtbIndex mode1_index(std::uint64_t ip, const ExecContext& ctx) const {
    if constexpr (RemapAwareMapping<Mapping>) {
      if (!m1_valid_ || m1_ip_ != ip) {
        m1_ = mapping_->btb_mode1(ip, ctx);
        m1_ip_ = ip;
        m1_valid_ = true;
      }
      return m1_;
    } else {
      return mapping_->btb_mode1(ip, ctx);
    }
  }

  // Member order is a measured layout choice: the scalars every access()
  // reads sit together ahead of the structures, and the cold null sink
  // goes last.
  const Mapping* mapping_;
  std::unique_ptr<Direction> direction_;
  IEventSink* sink_;
  mutable std::uint64_t m1_ip_ = 0;
  mutable bool m1_valid_ = false;
  mutable BtbIndex m1_;  ///< intra-access R1 scratch (remap-aware mappings)
  BranchTargetBuffer btb_;
  ReturnStackBuffer rsb_[2];
  BranchHistoryBuffer bhb_[2];
  NullEventSink null_sink_;
  std::string name_ = "core";
};

// ---------------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------------

template <class Mapping, class Direction>
BtbIndex CorePredictorT<Mapping, Direction>::mode2_index(std::uint64_t ip,
                                                         const ExecContext& ctx) const {
  // Mode 2: the set comes from the address as in mode 1, but the tag also
  // mixes the BHB so one indirect branch can hold several context-dependent
  // targets (paper §II-A). The mode-2 component is architecturally
  // kBtbMode2TagBits wide; mask before combining so wide (conservative)
  // tags keep their high bits intact.
  BtbIndex idx = mode1_index(ip, ctx);
  idx.tag ^= util::bits(mapping_->btb_mode2_tag(bhb_[ctx.hart & 1].value(), ctx), 0,
                        kBtbMode2TagBits);
  return idx;
}

template <class Mapping, class Direction>
typename CorePredictorT<Mapping, Direction>::TargetPrediction
CorePredictorT<Mapping, Direction>::predict_target(const BranchRecord& rec, bool pop_rsb) {
  const ExecContext& ctx = rec.ctx;
  TargetPrediction out;
  switch (rec.type) {
    case BranchType::kReturn: {
      auto& rsb = rsb_[ctx.hart & 1];
      const auto popped = pop_rsb ? rsb.pop() : rsb.peek();
      if (popped) {
        out.valid = true;
        out.target = mapping_->decode_target(rec.ip, *popped, ctx);
        return out;
      }
      out.rsb_underflow = true;
      // Fall back to the indirect predictor (BTB mode 2), as real parts do.
      [[fallthrough]];
    }
    case BranchType::kIndirectJump:
    case BranchType::kIndirectCall: {
      const auto m2 = btb_.lookup(mode2_index(rec.ip, ctx), ctx.hart);
      if (m2.hit) {
        out.valid = true;
        out.target = mapping_->decode_target(rec.ip, m2.payload, ctx);
        return out;
      }
      const auto m1 = btb_.lookup(mode1_index(rec.ip, ctx), ctx.hart);
      if (m1.hit) {
        out.valid = true;
        out.target = mapping_->decode_target(rec.ip, m1.payload, ctx);
      }
      return out;
    }
    case BranchType::kConditional:
    case BranchType::kDirectJump:
    case BranchType::kDirectCall: {
      const auto m1 = btb_.lookup(mode1_index(rec.ip, ctx), ctx.hart);
      if (m1.hit) {
        out.valid = true;
        out.target = mapping_->decode_target(rec.ip, m1.payload, ctx);
      }
      return out;
    }
  }
  return out;
}

template <class Mapping, class Direction>
Prediction CorePredictorT<Mapping, Direction>::predict_only(const BranchRecord& rec) const {
  // Const prediction path for front-end modelling: replicates access()'s
  // prediction without mutating structures (RSB peek instead of pop).
  Prediction pred;
  m1_valid_ = false;  // R1 scratch never spans accesses (ψ may re-key between)
  auto* self = const_cast<CorePredictorT*>(this);
  if (rec.type == BranchType::kConditional) {
    const DirPrediction d = self->direction_->predict(rec.ip, rec.ctx);
    pred.taken = d.taken;
    pred.from_tagged = d.from_tagged;
  } else {
    pred.taken = true;
  }
  const TargetPrediction t = self->predict_target(rec, /*pop_rsb=*/false);
  pred.target_valid = t.valid;
  pred.target = t.target;
  return pred;
}

template <class Mapping, class Direction>
void CorePredictorT<Mapping, Direction>::train_target(const BranchRecord& rec,
                                                      AccessResult& res) {
  const ExecContext& ctx = rec.ctx;
  // BTB allocates on taken control transfers only; a not-taken conditional
  // needs no target.
  if (!rec.taken) return;

  const std::uint64_t payload = mapping_->encode_target(rec.target, ctx);
  BtbIndex idx;
  bool indirect = false;
  switch (rec.type) {
    case BranchType::kReturn:
      // Returns are repaired through the RSB; BTB mode-2 training only
      // happens for them when they were predicted via the fallback path
      // (modelled by always refreshing the mode-2 entry on underflow).
      if (!res.rsb_underflow) return;
      idx = mode2_index(rec.ip, ctx);
      indirect = true;
      break;
    case BranchType::kIndirectJump:
    case BranchType::kIndirectCall:
      idx = mode2_index(rec.ip, ctx);
      indirect = true;
      break;
    default:
      idx = mode1_index(rec.ip, ctx);
      break;
  }
  const auto ins = btb_.insert(idx, payload, ctx.hart, indirect);
  res.btb_eviction = ins.evicted;
}

template <class Mapping, class Direction>
AccessResult CorePredictorT<Mapping, Direction>::access(const BranchRecord& rec) {
  const ExecContext& ctx = rec.ctx;
  AccessResult res;
  m1_valid_ = false;  // R1 scratch never spans accesses (ψ may re-key between)

  // --- predict ---------------------------------------------------------
  Prediction pred;
  if (rec.type == BranchType::kConditional) {
    const DirPrediction d = direction_->predict(rec.ip, ctx);
    pred.taken = d.taken;
    pred.from_tagged = d.from_tagged;
    res.from_tagged = d.from_tagged;
  } else {
    pred.taken = true;
  }
  const TargetPrediction tgt = predict_target(rec, /*pop_rsb=*/true);
  pred.target_valid = tgt.valid;
  pred.target = tgt.target;
  res.rsb_underflow = tgt.rsb_underflow;
  res.pred = pred;

  // --- resolve ---------------------------------------------------------
  res.direction_correct =
      rec.type != BranchType::kConditional || pred.taken == rec.taken;
  const bool needs_target = rec.taken && pred.taken;
  res.target_correct = !needs_target || (tgt.valid && tgt.target == rec.target);
  res.overall_correct = res.direction_correct && (!rec.taken || res.target_correct);
  res.direction_mispredicted = !res.direction_correct;
  res.target_mispredicted = needs_target && !res.target_correct;

  // --- train -----------------------------------------------------------
  if (rec.type == BranchType::kConditional) {
    direction_->update(rec.ip, ctx, rec.taken,
                       DirPrediction{pred.taken, pred.from_tagged});
  } else {
    direction_->track(rec);
  }
  if (is_call(rec.type)) {
    auto& rsb = rsb_[ctx.hart & 1];
    rsb.push(mapping_->encode_target(rec.ip + kBranchInstrLen, ctx));
  }
  train_target(rec, res);
  if (rec.taken) bhb_[ctx.hart & 1].push(rec.ip, rec.target);

  // --- events ----------------------------------------------------------
  if (!res.overall_correct) sink_->on_misprediction(ctx, res.from_tagged);
  if (res.btb_eviction) sink_->on_btb_eviction(ctx);
  return res;
}

template <class Mapping, class Direction>
void CorePredictorT<Mapping, Direction>::flush() {
  btb_.flush();
  direction_->flush();
  for (auto& r : rsb_) r.flush();
  for (auto& b : bhb_) b.clear();
}

template <class Mapping, class Direction>
void CorePredictorT<Mapping, Direction>::flush_targets() {
  // IBRS semantics: indirect prediction must not consume lower-privilege
  // state — mode-2 BTB entries, the RSB and the BHB context go; direct
  // targets stay.
  btb_.flush_indirect();
  for (auto& r : rsb_) r.flush();
  for (auto& b : bhb_) b.clear();
}

template <class Mapping, class Direction>
void CorePredictorT<Mapping, Direction>::flush_hart(std::uint8_t hart) {
  direction_->flush_hart(hart);
  rsb_[hart & 1].flush();
  bhb_[hart & 1].clear();
}

}  // namespace stbpu::bpu
