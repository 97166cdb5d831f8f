// Pregenerated SoA instruction traces — the reusable artifact form of the
// synthetic workload. The cycle-level scenarios replay the same
// (profile, seed) instruction stream many times per sweep (two ST arms ×
// four direction predictors × repetition loops); generating it on the fly
// each run was ~25% of the OoO step cost (ROADMAP gprof profile). An
// InstrTrace is generated ONCE per (profile name, seed, count) and every
// run replays it through an InstrTraceStream cursor whose borrow_block()
// hands the core pointers straight into the shared SoA arrays, which it
// bulk-copies a chunk at a time — zero RNG draws, bit-identical records by
// construction (the artifact is filled by the same SyntheticInstrGenerator
// the on-the-fly path runs; tests/trace/instr_block_test.cc asserts
// equality record by record and through the cores).
//
// Ownership contract: InstrTrace is immutable after generation and shared
// via shared_ptr — cursors are cheap, independent (each holds its own
// position), and safe to use concurrently from the experiment pool's
// worker threads. The process-wide memo (shared_instr_trace) is
// mutex-guarded; clear_instr_trace_cache() drops the cache's references
// (outstanding cursors keep their artifact alive).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/instr.h"
#include "trace/profile.h"

namespace stbpu::trace {

/// Whole-run pregenerated instruction trace (immutable after generation).
struct InstrTrace {
  WorkloadProfile profile;  ///< the exact generator parameters used
  std::uint64_t seed = 0;   ///< effective seed (override applied)
  InstrBlock block;

  [[nodiscard]] std::size_t size() const noexcept { return block.size(); }
};

/// Generate `count` instructions of `profile` into one SoA artifact.
[[nodiscard]] std::shared_ptr<const InstrTrace> generate_instr_trace(
    const WorkloadProfile& profile, std::uint64_t count,
    std::uint64_t seed_override = 0);

/// Memoized generation: the same (profile.name, effective seed, count)
/// returns the same shared artifact, generated once. A hit is verified
/// against the FULL profile parameters — a same-named profile with any
/// knob changed regenerates instead of silently replaying the canonical
/// stream. Thread-safe (the scenario pool requests the same trace from
/// many workers at once; the first requester generates, the rest wait and
/// share).
[[nodiscard]] std::shared_ptr<const InstrTrace> shared_instr_trace(
    const WorkloadProfile& profile, std::uint64_t count,
    std::uint64_t seed_override = 0);

/// Drop the memo's references (tests / memory pressure). Outstanding
/// streams keep their artifacts alive.
void clear_instr_trace_cache();

/// Replay cursor over a pregenerated trace. borrow_block() is the fast
/// path: it lends [pos, pos+n) of the shared block without copying.
class InstrTraceStream final : public InstrStream {
 public:
  explicit InstrTraceStream(std::shared_ptr<const InstrTrace> trace)
      : trace_(std::move(trace)) {}

  bool next(InstrRecord& out) override {
    const InstrBlock& b = trace_->block;
    if (pos_ >= b.size()) return false;
    out = b.record(pos_++);
    return true;
  }

  void reset() override { pos_ = 0; }

  const InstrBlock* borrow_block(std::size_t limit, std::size_t& start,
                                 std::size_t& n) override {
    const InstrBlock& b = trace_->block;
    n = std::min(limit, b.size() - pos_);
    if (n == 0) return nullptr;
    start = pos_;
    pos_ += n;
    return &b;
  }

  [[nodiscard]] bool contiguous() const noexcept override { return true; }

  [[nodiscard]] const std::shared_ptr<const InstrTrace>& trace() const noexcept {
    return trace_;
  }

 private:
  std::shared_ptr<const InstrTrace> trace_;
  std::size_t pos_ = 0;
};

}  // namespace stbpu::trace
