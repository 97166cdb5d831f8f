// Trace-based BPU simulator (paper §VII-B1's "in-house BPU simulator"):
// feeds a branch stream through any IPredictor, detecting context and mode
// switches in the stream (naturally occurring in the captured workloads)
// and reporting OAE/direction/target accuracy.
//
// The loop is batched (SoA, trace/batch.h) and templated over the model
// type: `replay(engine, ...)` with a concrete engine from
// models::make_engine devirtualizes the per-branch access() call;
// `simulate_bpu` is the interface-typed wrapper kept for the legacy path.
// Both run the identical statement sequence per branch, so their
// statistics are bit-identical for equivalent models.
#pragma once

#include <algorithm>
#include <cstdint>

#include "bpu/predictor.h"
#include "sim/stats.h"
#include "trace/batch.h"
#include "trace/stream.h"

namespace stbpu::sim {

struct BpuSimOptions {
  std::uint64_t max_branches = 2'000'000;
  std::uint64_t warmup_branches = 100'000;  ///< excluded from the stats
};

/// Batched replay of `stream` through `model` (anything with access() and
/// on_switch() — a concrete EngineT devirtualizes both). The stream is
/// consumed from its current position; callers reset() it between models
/// to replay identical traces.
template <class Model>
BranchStats replay(Model& model, trace::BranchStream& stream,
                   const BpuSimOptions& opt = {}) {
  BranchStats stats;
  bool have_last[2] = {false, false};
  bpu::ExecContext last[2];

  const std::uint64_t total = opt.warmup_branches + opt.max_branches;
  std::uint64_t processed = 0;
  trace::BranchBatch batch;

  const auto step = [&](const bpu::BranchRecord& rec) {
    const unsigned h = rec.ctx.hart & 1;
    if (have_last[h] && !(last[h] == rec.ctx)) {
      model.on_switch(last[h], rec.ctx);
      if (processed >= opt.warmup_branches) {
        if (last[h].pid != rec.ctx.pid) {
          ++stats.context_switches;
        } else {
          ++stats.mode_switches;
        }
      }
    }
    last[h] = rec.ctx;
    have_last[h] = true;

    const bpu::AccessResult res = model.access(rec);
    if (processed >= opt.warmup_branches) stats.absorb(rec, res);
    ++processed;
  };

  while (processed < total) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(trace::kDefaultBatch, total - processed));
    // Zero-copy fast path for materialized streams; SoA batch refill for
    // generators (amortizes the virtual stream dispatch per batch).
    std::size_t n = 0;
    if (const bpu::BranchRecord* run = stream.borrow_run(want, n)) {
      for (std::size_t i = 0; i < n; ++i) step(run[i]);
    } else {
      if (batch.ip.capacity() == 0) batch.reserve(trace::kDefaultBatch);
      n = stream.next_batch(batch, want);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) step(batch.record(i));
    }
  }
  return stats;
}

/// Run `stream` through `model` (interface-typed legacy entry point).
BranchStats simulate_bpu(bpu::IPredictor& model, trace::BranchStream& stream,
                         const BpuSimOptions& opt = {});

}  // namespace stbpu::sim
