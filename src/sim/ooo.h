// Cycle-level out-of-order core model — the gem5 DerivO3CPU substitute
// (DESIGN.md substitution #2), configured per Table IV: 8-issue OoO,
// ROB 192, IQ 64, LQ/SQ 32/32, three-level cache hierarchy, optional SMT-2.
//
// The model is trace-driven and event-ordered: for every instruction it
// computes fetch, dispatch, issue, completion and commit times subject to
//   * front-end redirect stalls after branch mispredictions (the coupling
//    Figures 4-6 measure),
//   * ROB/IQ/LQ/SQ occupancy and fetch/issue bandwidth (shared between SMT
//     threads),
//   * register dataflow dependencies and cache-hierarchy load latencies.
// Wrong-path execution is approximated by the redirect penalty, the
// standard trace-driven simplification (documented in DESIGN.md §5).
//
// Two implementations share the interface:
//   * OooCoreT — the production core. Event times are u64 *ticks*, one tick
//     = the 1/width issue quantum, so a cycle is exactly `width` ticks and
//     every max/+ in the timing recurrence is exact integer arithmetic (all
//     OooConfig latencies are unsigned; 1/width is the only fractional
//     quantum in the model). Pipeline state is structure-of-arrays: flat
//     tick rings with power-of-two masks, parallel per-thread scalar
//     arrays. It also attributes stall cycles (fetch bandwidth, redirects,
//     ROB/IQ/LQ/SQ occupancy) per thread.
//   * OooCoreRefT — the retained double-precision reference core, the
//     original AoS implementation kept verbatim so equivalence is asserted,
//     not assumed: for power-of-two widths every double the reference
//     computes is an exact multiple of 1/width, so the tick core's
//     cycles/IPC match it bit-for-bit and BranchStats are identical by
//     construction (tests/integration/ooo_typed_equivalence_test.cc,
//     tests/sim/ooo_core_test.cc).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bpu/predictor.h"
#include "sim/cache.h"
#include "sim/stats.h"
#include "trace/instr.h"

namespace stbpu::sim {

/// Architectural integer register count (RISC-style x1..x32; index 0 in a
/// trace record means "no register dependency", so scoreboards carry
/// kNumArchRegs + 1 slots). Trace records are bounds-checked against this
/// in Debug builds — a corrupt on-disk trace must fail an assert, not
/// scribble past the scoreboard.
inline constexpr unsigned kNumArchRegs = 32;

/// The model supports at most 2-way SMT (Table IV; OooResult arrays and the
/// per-hart BPU structures are sized for it).
inline constexpr unsigned kMaxSmtThreads = bpu::kMaxSmtThreads;

/// Integer event time: 1 tick = 1/width of a cycle (the issue quantum), so
/// a cycle is exactly `width` ticks. u64 ticks overflow after ~2^64/width
/// cycles — unreachable for any simulated budget.
using Tick = std::uint64_t;

struct OooConfig {
  unsigned width = 8;           ///< fetch/issue/commit width
  unsigned rob = 192;
  unsigned iq = 64;
  unsigned lq = 32;
  unsigned sq = 32;
  unsigned frontend_depth = 6;  ///< fetch→dispatch pipeline depth
  unsigned mispredict_penalty = 14;
  CacheHierarchyConfig caches{};

  // Execution latencies (cycles).
  unsigned lat_alu = 1;
  unsigned lat_mul = 3;
  unsigned lat_div = 20;
  unsigned lat_fp = 4;
  unsigned lat_branch = 2;
};

/// Where a thread's instructions lost time — the ordered attribution of
/// every stall the timing recurrence models. Each constraint is blamed
/// for the delay it adds *after* the previous ones applied, in pipeline
/// order: redirect → shared fetch port at the front end, then
/// ROB → IQ → LQ → SQ at dispatch, so one instruction's delay is never
/// double-counted. Counters accumulate per instruction over the measured
/// window; in-flight instructions overlap, so a counter can exceed
/// wall-clock cycles — divide by the instruction count for the average
/// per-instruction (CPI-stack-style) contribution. Reported in cycles
/// (exact: reconstructed from integer ticks).
struct OooThreadStalls {
  double fetch_bandwidth = 0.0;  ///< shared fetch port busy (SMT sibling or own width)
  double redirect = 0.0;         ///< front end squashed by a branch mispredict
  double rob = 0.0;              ///< reorder buffer full at dispatch
  double iq = 0.0;               ///< issue queue full at dispatch
  double lq = 0.0;               ///< load queue full at dispatch
  double sq = 0.0;               ///< store queue full at dispatch

  friend bool operator==(const OooThreadStalls&, const OooThreadStalls&) = default;
};

struct OooResult {
  unsigned threads = 1;
  std::array<std::uint64_t, kMaxSmtThreads> instructions{};
  std::array<double, kMaxSmtThreads> cycles{};
  std::array<double, kMaxSmtThreads> ipc{};
  std::array<BranchStats, kMaxSmtThreads> branch_stats{};
  /// Stall attribution (tick core only; the double reference core leaves
  /// these zero — it predates the counters and stays the unadorned spec).
  std::array<OooThreadStalls, kMaxSmtThreads> stalls{};
  /// Demand hit/miss counters of the core's cache hierarchy over the whole
  /// run (warm-up included) — the cache simulation's fingerprint, asserted
  /// bit-equal across core variants by the ooo_engine scenario and watched
  /// by the CI compare gate.
  CacheHierarchyCounters cache{};

  [[nodiscard]] double ipc_harmonic_mean() const {
    if (threads == 1) return ipc[0];
    if (ipc[0] <= 0 || ipc[1] <= 0) return 0.0;
    return 2.0 / (1.0 / ipc[0] + 1.0 / ipc[1]);
  }
  [[nodiscard]] BranchStats combined_stats() const {
    BranchStats s = branch_stats[0];
    if (threads > 1) s += branch_stats[1];
    return s;
  }
};

/// The production cycle-level core: integer fixed-point event timing over
/// structure-of-arrays pipeline state.
///
/// Template over the BPU type: with the default interface type this is the
/// classic polymorphic core; instantiated with a concrete engine type the
/// per-branch access() devirtualizes like the trace replay loop.
///
/// Timing state is u64 ticks (1 tick = 1/width cycle): thread fetch/commit
/// clocks, the shared SMT fetch/issue clocks, ring entries and the register
/// scoreboard. Ring buffers live in one flat allocation per core —
/// per thread a contiguous [ROB | IQ | LQ | SQ] block — with power-of-two
/// capacities indexed by mask. Logical occupancy is preserved exactly: an
/// entry for instruction n is written at (n & mask) and the occupancy
/// constraint reads (n - logical_size) & mask, which is the commit/issue
/// time written logical_size instructions ago (or the initial 0 while the
/// structure is still filling) — bit-identical to the reference core's
/// `ring[n % logical_size]` modulo rings.
template <class Bpu = bpu::IPredictor>
class OooCoreT {
 public:
  /// `bpu` is shared between all threads (that sharing is the attack
  /// surface and the performance coupling under study).
  OooCoreT(const OooConfig& cfg, Bpu* bpu, std::vector<trace::InstrStream*> threads);

  /// Simulate `instr_budget` committed instructions per thread after
  /// `warmup` warm-up instructions per thread.
  OooResult run(std::uint64_t instr_budget, std::uint64_t warmup);

  [[nodiscard]] const CacheHierarchy& caches() const noexcept { return caches_; }

 private:
  /// Geometry of one ring structure: logical size (the architectural
  /// occupancy limit) and a power-of-two storage mask.
  struct RingGeom {
    Tick offset = 0;   ///< within a thread's ring block
    Tick size = 0;     ///< logical occupancy (architectural share)
    Tick mask = 0;     ///< pow2 storage capacity - 1
  };

  /// SoA view of the fetched instruction — filled from the window block's
  /// parallel arrays (pointer consumption, no InstrRecord reassembly) or
  /// from the per-record scratch on the direct path. `branch` points into
  /// the block's compacted branch payloads (or at scratch.branch) and is
  /// valid until the next fetch.
  struct Fetched {
    trace::InstrRecord::Kind kind;
    std::uint8_t dst, src1, src2;
    bool streaming;
    std::uint64_t mem_addr;
    const bpu::BranchRecord* branch;  ///< non-null iff kind == kBranch
  };

  void step(unsigned t);
  /// Pull the next instruction into the SoA view; false when the stream is
  /// exhausted.
  bool fetch_instr(unsigned t, trace::InstrRecord& scratch, Fetched& out);
  /// Point the drained window at the stream's next run of its own SoA
  /// block (contiguous streams only; see the constructor).
  void refill_window(unsigned t);

  [[nodiscard]] Tick* ring(unsigned t) noexcept {
    return rings_.data() + std::size_t{t} * ring_stride_;
  }

  OooConfig cfg_;
  Bpu* bpu_;
  CacheHierarchy caches_;
  unsigned nthreads_ = 1;

  // Precomputed tick constants (cycles × width). lat_ticks_ slots 0-3 are
  // indexed by InstrRecord::Kind directly (execute-stage lookup); branches
  // take a separate slot since their Kind value overlaps kLoad's, which
  // never reads the table. Pinned by static_asserts in the constructor.
  static constexpr unsigned kBranchLatSlot = 4;
  Tick depth_ticks_ = 0;
  Tick penalty_ticks_ = 0;
  Tick lat_ticks_[kBranchLatSlot + 1] = {};

  // --- SoA pipeline state: parallel arrays indexed by thread -------------
  std::array<trace::InstrStream*, kMaxSmtThreads> streams_{};
  std::array<Tick, kMaxSmtThreads> next_fetch_{};
  std::array<Tick, kMaxSmtThreads> redirect_until_{};
  std::array<Tick, kMaxSmtThreads> last_commit_{};
  std::array<Tick, kMaxSmtThreads> finish_tick_{};
  std::array<Tick, kMaxSmtThreads> measure_start_{};
  std::array<std::uint64_t, kMaxSmtThreads> count_{};
  std::array<std::uint64_t, kMaxSmtThreads> loads_{};
  std::array<std::uint64_t, kMaxSmtThreads> stores_{};
  std::array<std::uint64_t, kMaxSmtThreads> measured_{};
  std::array<bool, kMaxSmtThreads> done_{};
  std::array<bool, kMaxSmtThreads> measuring_{};
  std::array<bool, kMaxSmtThreads> has_ctx_{};
  std::array<bpu::ExecContext, kMaxSmtThreads> last_ctx_{};
  std::array<BranchStats, kMaxSmtThreads> stats_{};

  /// Register scoreboard: ready tick per architectural register (slot 0 is
  /// the "no dependency" register and stays 0 forever).
  std::array<std::array<Tick, kNumArchRegs + 1>, kMaxSmtThreads> reg_ready_{};

  /// Measured-window stall attribution, in ticks.
  struct StallTicks {
    Tick fetch_bw = 0, redirect = 0, rob = 0, iq = 0, lq = 0, sq = 0;
  };
  std::array<StallTicks, kMaxSmtThreads> stall_ticks_{};

  /// All ring buffers, one flat allocation: thread t's block starts at
  /// t × ring_stride_ and holds [ROB | IQ | LQ | SQ] back to back.
  std::vector<Tick> rings_;
  Tick ring_stride_ = 0;
  RingGeom rob_, iq_, lq_, sq_;

  // Shared SMT clocks (one fetch port, one issue port, width per cycle).
  Tick shared_fetch_tick_ = 0;
  Tick shared_issue_tick_ = 0;

  // Windowed fetch: on contiguous streams each thread consumes its trace
  // zero-copy from the stream's own SoA block, the window spanning
  // [window_base_, window_base_ + window_size_) of `window_blk_`.
  std::size_t window_cap_ = 0;
  std::array<bool, kMaxSmtThreads> use_window_{};
  std::array<const trace::InstrBlock*, kMaxSmtThreads> window_blk_{};
  std::array<std::size_t, kMaxSmtThreads> window_base_{};
  std::array<std::size_t, kMaxSmtThreads> window_pos_{};
  std::array<std::size_t, kMaxSmtThreads> window_size_{};
};

/// Legacy dynamic-dispatch instantiation (compiled once in ooo.cc).
using OooCore = OooCoreT<>;

// ---------------------------------------------------------------------------
// Implementation (template — shared verbatim by every instantiation).
// ---------------------------------------------------------------------------

template <class Bpu>
OooCoreT<Bpu>::OooCoreT(const OooConfig& cfg, Bpu* bpu,
                        std::vector<trace::InstrStream*> threads)
    : cfg_(cfg), bpu_(bpu), caches_(cfg.caches) {
  assert(cfg_.width >= 1 && "OooConfig::width must be at least 1");
  assert(!threads.empty() && threads.size() <= kMaxSmtThreads &&
         "the core models 1..kMaxSmtThreads hardware threads");
  nthreads_ = static_cast<unsigned>(threads.size());

  // The Kind-indexed latency slots and the branch slot must not collide;
  // a reordered Kind enum breaks here at compile time, not in cycle counts.
  using Kind = trace::InstrRecord::Kind;
  static_assert(static_cast<unsigned>(Kind::kAlu) == 0 &&
                    static_cast<unsigned>(Kind::kMul) == 1 &&
                    static_cast<unsigned>(Kind::kDiv) == 2 &&
                    static_cast<unsigned>(Kind::kFp) == 3,
                "execute-stage lookup indexes lat_ticks_ by Kind");
  static_assert(static_cast<unsigned>(Kind::kLoad) == kBranchLatSlot,
                "loads never read lat_ticks_, so their Kind value doubles as "
                "the branch latency slot");

  const Tick w = cfg_.width;
  depth_ticks_ = Tick{cfg_.frontend_depth} * w;
  penalty_ticks_ = Tick{cfg_.mispredict_penalty} * w;
  lat_ticks_[static_cast<unsigned>(Kind::kAlu)] = Tick{cfg_.lat_alu} * w;
  lat_ticks_[static_cast<unsigned>(Kind::kMul)] = Tick{cfg_.lat_mul} * w;
  lat_ticks_[static_cast<unsigned>(Kind::kDiv)] = Tick{cfg_.lat_div} * w;
  lat_ticks_[static_cast<unsigned>(Kind::kFp)] = Tick{cfg_.lat_fp} * w;
  lat_ticks_[kBranchLatSlot] = Tick{cfg_.lat_branch} * w;

  // Per-thread shares of the shared structures (same floor as the
  // reference core), stored with power-of-two capacity so the hot path
  // masks instead of dividing.
  const auto share = [&](unsigned total, unsigned floor_sz) {
    return std::max(floor_sz, total / nthreads_);
  };
  const auto geom = [](unsigned logical, Tick offset) {
    RingGeom g;
    g.offset = offset;
    g.size = logical;
    g.mask = std::bit_ceil(std::uint64_t{logical}) - 1;
    return g;
  };
  rob_ = geom(share(cfg_.rob, 8), 0);
  iq_ = geom(share(cfg_.iq, 4), rob_.mask + 1);
  lq_ = geom(share(cfg_.lq, 4), iq_.offset + iq_.mask + 1);
  sq_ = geom(share(cfg_.sq, 4), lq_.offset + lq_.mask + 1);
  ring_stride_ = sq_.offset + sq_.mask + 1;
  rings_.assign(std::size_t{ring_stride_} * nthreads_, Tick{0});

  for (unsigned t = 0; t < nthreads_; ++t) streams_[t] = threads[t];

  window_cap_ = std::max<std::size_t>(1, std::size_t{cfg_.frontend_depth} * cfg_.width);
  // A stream that serves blocks from materialized storage is fetched
  // through the window, which is then pure pointer consumption; any other
  // stream is fetched record by record.
  for (unsigned t = 0; t < nthreads_; ++t) use_window_[t] = streams_[t]->contiguous();
}

template <class Bpu>
bool OooCoreT<Bpu>::fetch_instr(const unsigned t, trace::InstrRecord& scratch,
                                Fetched& out) {
  if (use_window_[t]) {
    if (window_pos_[t] >= window_size_[t]) refill_window(t);
    const std::size_t p = window_pos_[t];
    if (p >= window_size_[t]) return false;
    ++window_pos_[t];
    const trace::InstrBlock& b = *window_blk_[t];
    const std::size_t i = window_base_[t] + p;
    out.kind = static_cast<trace::InstrRecord::Kind>(b.kind[i]);
    out.dst = b.dst[i];
    out.src1 = b.src1[i];
    out.src2 = b.src2[i];
    out.streaming = b.streaming[i] != 0;
    out.mem_addr = b.mem_addr[i];
    out.branch = out.kind == trace::InstrRecord::Kind::kBranch
                     ? &b.branches[b.branch_before[i]]
                     : nullptr;
    return true;
  }
  if (!streams_[t]->next(scratch)) return false;
  out.kind = scratch.kind;
  out.dst = scratch.dst;
  out.src1 = scratch.src1;
  out.src2 = scratch.src2;
  out.streaming = scratch.streaming;
  out.mem_addr = scratch.mem_addr;
  out.branch =
      scratch.kind == trace::InstrRecord::Kind::kBranch ? &scratch.branch : nullptr;
  return true;
}

template <class Bpu>
void OooCoreT<Bpu>::refill_window(const unsigned t) {
  std::size_t start = 0;
  std::size_t n = 0;
  window_blk_[t] = streams_[t]->borrow_block(window_cap_, start, n);
  window_base_[t] = start;
  window_pos_[t] = 0;
  window_size_[t] = window_blk_[t] == nullptr ? 0 : n;
}

template <class Bpu>
void OooCoreT<Bpu>::step(const unsigned t) {
  trace::InstrRecord scratch;
  Fetched ins;
  if (!fetch_instr(t, scratch, ins)) {
    done_[t] = true;
    finish_tick_[t] = last_commit_[t];
    return;
  }
  const bool measuring = measuring_[t];
  StallTicks& stall = stall_ticks_[t];

  // --- fetch: thread redirect stall + shared fetch bandwidth -------------
  Tick fetch = next_fetch_[t];
  if (redirect_until_[t] > fetch) {
    if (measuring) stall.redirect += redirect_until_[t] - fetch;
    fetch = redirect_until_[t];
  }
  if (shared_fetch_tick_ > fetch) {
    if (measuring) stall.fetch_bw += shared_fetch_tick_ - fetch;
    fetch = shared_fetch_tick_;
  }
  shared_fetch_tick_ = fetch + 1;
  next_fetch_[t] = fetch;

  // --- dispatch: ROB / IQ / LQ / SQ occupancy -----------------------------
  // Each constraint is blamed for the delay it adds after the previous ones
  // (pipeline order ROB → IQ → LQ → SQ), so the counters sum to the total
  // dispatch stall without double counting.
  Tick* rings = ring(t);
  const std::uint64_t n = count_[t];
  Tick dispatch = fetch + depth_ticks_;
  {
    const Tick v = rings[rob_.offset + ((n - rob_.size) & rob_.mask)];
    if (v > dispatch) {
      if (measuring) stall.rob += v - dispatch;
      dispatch = v;
    }
  }
  {
    const Tick v = rings[iq_.offset + ((n - iq_.size) & iq_.mask)];
    if (v > dispatch) {
      if (measuring) stall.iq += v - dispatch;
      dispatch = v;
    }
  }
  const bool is_load = ins.kind == trace::InstrRecord::Kind::kLoad;
  const bool is_store = ins.kind == trace::InstrRecord::Kind::kStore;
  if (is_load) {
    const Tick v = rings[lq_.offset + ((loads_[t] - lq_.size) & lq_.mask)];
    if (v > dispatch) {
      if (measuring) stall.lq += v - dispatch;
      dispatch = v;
    }
  }
  if (is_store) {
    const Tick v = rings[sq_.offset + ((stores_[t] - sq_.size) & sq_.mask)];
    if (v > dispatch) {
      if (measuring) stall.sq += v - dispatch;
      dispatch = v;
    }
  }

  // --- issue: dataflow + shared issue bandwidth ---------------------------
  assert(ins.dst <= kNumArchRegs && ins.src1 <= kNumArchRegs &&
         ins.src2 <= kNumArchRegs && "trace register index exceeds kNumArchRegs");
  const std::array<Tick, kNumArchRegs + 1>& regs = reg_ready_[t];
  Tick ready = dispatch;
  if (ins.src1 != 0) ready = std::max(ready, regs[ins.src1]);
  if (ins.src2 != 0) ready = std::max(ready, regs[ins.src2]);
  const Tick issue = std::max(ready, shared_issue_tick_);
  shared_issue_tick_ = issue + 1;
  rings[iq_.offset + (n & iq_.mask)] = issue;

  // --- execute ------------------------------------------------------------
  Tick lat = lat_ticks_[0];
  bool mispredicted = false;
  bpu::AccessResult access{};
  switch (ins.kind) {
    case trace::InstrRecord::Kind::kAlu:
    case trace::InstrRecord::Kind::kMul:
    case trace::InstrRecord::Kind::kDiv:
    case trace::InstrRecord::Kind::kFp:
      lat = lat_ticks_[static_cast<unsigned>(ins.kind)];
      break;
    case trace::InstrRecord::Kind::kLoad:
      lat = Tick{caches_.load_latency(ins.mem_addr, ins.streaming)} * cfg_.width;
      break;
    case trace::InstrRecord::Kind::kStore:
      lat = Tick{1} * cfg_.width;  // data captured; line written back post-commit
      caches_.load_latency(ins.mem_addr, ins.streaming);  // allocate-on-write
      break;
    case trace::InstrRecord::Kind::kBranch: {
      lat = lat_ticks_[kBranchLatSlot];
      bpu::BranchRecord br = *ins.branch;
      br.ctx.hart = static_cast<std::uint8_t>(t);  // hart assigned by the core
      if (has_ctx_[t] && !(last_ctx_[t] == br.ctx)) {
        bpu_->on_switch(last_ctx_[t], br.ctx);
        if (measuring) {
          if (last_ctx_[t].pid != br.ctx.pid) {
            ++stats_[t].context_switches;
          } else {
            ++stats_[t].mode_switches;
          }
        }
      }
      last_ctx_[t] = br.ctx;
      has_ctx_[t] = true;
      access = bpu_->access(br);
      mispredicted = !access.overall_correct;
      if (measuring) stats_[t].absorb(br, access);
      break;
    }
  }
  const Tick complete = issue + lat;
  if (ins.dst != 0) reg_ready_[t][ins.dst] = complete;
  if (is_load) {
    rings[lq_.offset + (loads_[t] & lq_.mask)] = complete;
    ++loads_[t];
  }

  // --- resolve branches ----------------------------------------------------
  if (mispredicted) {
    // Squash: the front end refills from the correct path once the branch
    // resolves; younger wrong-path work is abandoned (penalty-modelled).
    redirect_until_[t] = std::max(redirect_until_[t], complete + penalty_ticks_);
  }

  // --- commit: in order, width per cycle ----------------------------------
  const Tick commit = std::max(complete, last_commit_[t] + 1);
  last_commit_[t] = commit;
  rings[rob_.offset + (n & rob_.mask)] = commit;
  if (is_store) {
    rings[sq_.offset + (stores_[t] & sq_.mask)] = commit;
    ++stores_[t];
  }
  ++count_[t];
  if (measuring) ++measured_[t];
}

template <class Bpu>
OooResult OooCoreT<Bpu>::run(std::uint64_t instr_budget, std::uint64_t warmup) {
  OooResult result;
  result.threads = nthreads_;

  // Warm up all threads (round-robin so SMT contention is realistic).
  for (std::uint64_t i = 0; i < warmup; ++i) {
    for (unsigned t = 0; t < nthreads_; ++t) {
      if (!done_[t]) step(t);
    }
  }
  for (unsigned t = 0; t < nthreads_; ++t) {
    measuring_[t] = true;
    measure_start_[t] = last_commit_[t];
  }

  // Measured window: run each thread to its budget. Fine-grain round-robin
  // keeps the shared-BPU access interleaving honest while both run.
  bool progress = true;
  while (progress) {
    progress = false;
    for (unsigned t = 0; t < nthreads_; ++t) {
      if (!done_[t] && measured_[t] < instr_budget) {
        step(t);
        progress = true;
      } else if (!done_[t] && finish_tick_[t] == 0) {
        finish_tick_[t] = last_commit_[t];
      }
    }
  }

  // Report: cycles/IPC reconstructed from ticks. For power-of-two widths
  // tick/width is an exact double, so these match the reference core
  // bit-for-bit; for other widths the tick numbers are the *more* exact
  // ones (the reference accumulates 1/width rounding).
  const double scale = static_cast<double>(cfg_.width);
  for (unsigned t = 0; t < nthreads_; ++t) {
    if (finish_tick_[t] == 0) finish_tick_[t] = last_commit_[t];
    const Tick ticks = finish_tick_[t] - measure_start_[t];
    const double cycles = std::max(1.0, static_cast<double>(ticks) / scale);
    result.instructions[t] = measured_[t];
    result.cycles[t] = cycles;
    result.ipc[t] = static_cast<double>(measured_[t]) / cycles;
    result.branch_stats[t] = stats_[t];
    const StallTicks& s = stall_ticks_[t];
    result.stalls[t] = {.fetch_bandwidth = static_cast<double>(s.fetch_bw) / scale,
                        .redirect = static_cast<double>(s.redirect) / scale,
                        .rob = static_cast<double>(s.rob) / scale,
                        .iq = static_cast<double>(s.iq) / scale,
                        .lq = static_cast<double>(s.lq) / scale,
                        .sq = static_cast<double>(s.sq) / scale};
  }
  result.cache = caches_.counters();
  return result;
}

// ---------------------------------------------------------------------------
// OooCoreRefT — the double-precision reference core (retained AoS
// implementation). This is the executable specification the tick core is
// checked against; it has no stall counters and no SoA layout on purpose.
// ---------------------------------------------------------------------------

template <class Bpu = bpu::IPredictor>
class OooCoreRefT {
 public:
  OooCoreRefT(const OooConfig& cfg, Bpu* bpu, std::vector<trace::InstrStream*> threads);

  OooResult run(std::uint64_t instr_budget, std::uint64_t warmup);

  [[nodiscard]] const CacheHierarchy& caches() const noexcept { return caches_; }

 private:
  struct ThreadState {
    trace::InstrStream* stream = nullptr;
    std::uint8_t hart = 0;
    double next_fetch = 0.0;
    double redirect_until = 0.0;
    double last_commit = 0.0;
    std::uint64_t count = 0;           ///< instructions processed
    std::uint64_t loads = 0, stores = 0;
    std::vector<double> rob_commit;    ///< ring: commit time by instr index
    std::vector<double> iq_issue;      ///< ring: issue time by instr index
    std::vector<double> lq_complete;   ///< ring per load
    std::vector<double> sq_commit;     ///< ring per store
    std::array<double, kNumArchRegs + 1> reg_ready{};
    bool has_ctx = false;
    bpu::ExecContext last_ctx;
    // Measurement window.
    bool measuring = false;
    double measure_start = 0.0;
    BranchStats stats;
    std::uint64_t measured = 0;
    bool done = false;
    double finish_time = 0.0;
  };

  void step(ThreadState& t);

  OooConfig cfg_;
  Bpu* bpu_;
  CacheHierarchy caches_;
  std::vector<ThreadState> threads_;
  double shared_fetch_time_ = 0.0;
  double shared_issue_time_ = 0.0;
};

/// Interface-typed reference instantiation (compiled once in ooo.cc).
using OooCoreRef = OooCoreRefT<>;

template <class Bpu>
OooCoreRefT<Bpu>::OooCoreRefT(const OooConfig& cfg, Bpu* bpu,
                              std::vector<trace::InstrStream*> threads)
    : cfg_(cfg), bpu_(bpu), caches_(cfg.caches) {
  assert(!threads.empty() && threads.size() <= kMaxSmtThreads);
  threads_.resize(threads.size());
  const unsigned rob_share =
      std::max<unsigned>(8, cfg_.rob / static_cast<unsigned>(threads.size()));
  const unsigned iq_share =
      std::max<unsigned>(4, cfg_.iq / static_cast<unsigned>(threads.size()));
  const unsigned lq_share =
      std::max<unsigned>(4, cfg_.lq / static_cast<unsigned>(threads.size()));
  const unsigned sq_share =
      std::max<unsigned>(4, cfg_.sq / static_cast<unsigned>(threads.size()));
  for (std::size_t i = 0; i < threads.size(); ++i) {
    ThreadState& t = threads_[i];
    t.stream = threads[i];
    t.hart = static_cast<std::uint8_t>(i);
    t.rob_commit.assign(rob_share, 0.0);
    t.iq_issue.assign(iq_share, 0.0);
    t.lq_complete.assign(lq_share, 0.0);
    t.sq_commit.assign(sq_share, 0.0);
  }
}

template <class Bpu>
void OooCoreRefT<Bpu>::step(ThreadState& t) {
  trace::InstrRecord ins;
  if (!t.stream->next(ins)) {
    t.done = true;
    t.finish_time = t.last_commit;
    return;
  }
  const double inv_w = 1.0 / cfg_.width;

  // --- fetch: thread redirect stall + shared fetch bandwidth -------------
  double fetch = std::max(t.next_fetch, t.redirect_until);
  fetch = std::max(fetch, shared_fetch_time_);
  shared_fetch_time_ = fetch + inv_w;
  t.next_fetch = fetch;

  // --- dispatch: ROB / IQ / LQ / SQ occupancy -----------------------------
  double dispatch = fetch + cfg_.frontend_depth;
  dispatch = std::max(dispatch, t.rob_commit[t.count % t.rob_commit.size()]);
  dispatch = std::max(dispatch, t.iq_issue[t.count % t.iq_issue.size()]);
  const bool is_load = ins.kind == trace::InstrRecord::Kind::kLoad;
  const bool is_store = ins.kind == trace::InstrRecord::Kind::kStore;
  if (is_load) {
    dispatch = std::max(dispatch, t.lq_complete[t.loads % t.lq_complete.size()]);
  }
  if (is_store) {
    dispatch = std::max(dispatch, t.sq_commit[t.stores % t.sq_commit.size()]);
  }

  // --- issue: dataflow + shared issue bandwidth ---------------------------
  assert(ins.dst <= kNumArchRegs && ins.src1 <= kNumArchRegs &&
         ins.src2 <= kNumArchRegs && "trace register index exceeds kNumArchRegs");
  double ready = dispatch;
  if (ins.src1 != 0) ready = std::max(ready, t.reg_ready[ins.src1]);
  if (ins.src2 != 0) ready = std::max(ready, t.reg_ready[ins.src2]);
  double issue = std::max(ready, shared_issue_time_);
  shared_issue_time_ = issue + inv_w;
  t.iq_issue[t.count % t.iq_issue.size()] = issue;

  // --- execute ------------------------------------------------------------
  double lat = cfg_.lat_alu;
  bool mispredicted = false;
  bpu::AccessResult access{};
  switch (ins.kind) {
    case trace::InstrRecord::Kind::kAlu:
      lat = cfg_.lat_alu;
      break;
    case trace::InstrRecord::Kind::kMul:
      lat = cfg_.lat_mul;
      break;
    case trace::InstrRecord::Kind::kDiv:
      lat = cfg_.lat_div;
      break;
    case trace::InstrRecord::Kind::kFp:
      lat = cfg_.lat_fp;
      break;
    case trace::InstrRecord::Kind::kLoad:
      lat = caches_.load_latency(ins.mem_addr, ins.streaming);
      break;
    case trace::InstrRecord::Kind::kStore:
      lat = 1;  // store data captured; the line is written back post-commit
      caches_.load_latency(ins.mem_addr, ins.streaming);  // allocate-on-write
      break;
    case trace::InstrRecord::Kind::kBranch: {
      lat = cfg_.lat_branch;
      bpu::BranchRecord br = ins.branch;
      br.ctx.hart = t.hart;  // hart is assigned by the core, not the trace
      if (t.has_ctx && !(t.last_ctx == br.ctx)) {
        bpu_->on_switch(t.last_ctx, br.ctx);
        if (t.measuring) {
          if (t.last_ctx.pid != br.ctx.pid) {
            ++t.stats.context_switches;
          } else {
            ++t.stats.mode_switches;
          }
        }
      }
      t.last_ctx = br.ctx;
      t.has_ctx = true;
      access = bpu_->access(br);
      mispredicted = !access.overall_correct;
      if (t.measuring) t.stats.absorb(br, access);
      break;
    }
  }
  const double complete = issue + lat;
  if (ins.dst != 0) t.reg_ready[ins.dst] = complete;
  if (is_load) {
    t.lq_complete[t.loads % t.lq_complete.size()] = complete;
    ++t.loads;
  }

  // --- resolve branches ----------------------------------------------------
  if (mispredicted) {
    // Squash: the front end refills from the correct path once the branch
    // resolves; younger wrong-path work is abandoned (penalty-modelled).
    t.redirect_until =
        std::max(t.redirect_until, complete + cfg_.mispredict_penalty);
  }

  // --- commit: in order, width per cycle ----------------------------------
  const double commit = std::max(complete, t.last_commit + inv_w);
  t.last_commit = commit;
  t.rob_commit[t.count % t.rob_commit.size()] = commit;
  if (is_store) {
    t.sq_commit[t.stores % t.sq_commit.size()] = commit;
    ++t.stores;
  }
  ++t.count;
  if (t.measuring) ++t.measured;
}

template <class Bpu>
OooResult OooCoreRefT<Bpu>::run(std::uint64_t instr_budget, std::uint64_t warmup) {
  OooResult result;
  result.threads = static_cast<unsigned>(threads_.size());

  // Warm up all threads (round-robin so SMT contention is realistic).
  for (std::uint64_t i = 0; i < warmup; ++i) {
    for (auto& t : threads_) {
      if (!t.done) step(t);
    }
  }
  for (auto& t : threads_) {
    t.measuring = true;
    t.measure_start = t.last_commit;
  }

  // Measured window: run each thread to its budget. Fine-grain round-robin
  // keeps the shared-BPU access interleaving honest while both run.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& t : threads_) {
      if (!t.done && t.measured < instr_budget) {
        step(t);
        progress = true;
      } else if (!t.done && t.finish_time == 0.0) {
        t.finish_time = t.last_commit;
      }
    }
  }

  for (std::size_t i = 0; i < threads_.size(); ++i) {
    ThreadState& t = threads_[i];
    if (t.finish_time == 0.0) t.finish_time = t.last_commit;
    const double cycles = std::max(1.0, t.finish_time - t.measure_start);
    result.instructions[i] = t.measured;
    result.cycles[i] = cycles;
    result.ipc[i] = static_cast<double>(t.measured) / cycles;
    result.branch_stats[i] = t.stats;
  }
  result.cache = caches_.counters();
  return result;
}

/// The legacy instantiations are compiled once in ooo.cc.
extern template class OooCoreT<>;
extern template class OooCoreRefT<>;

/// Engine-typed fan-out entry point: run a cycle-level core instantiated on
/// the concrete BPU type. With `Bpu` a final engine from
/// models::visit_engine the per-branch access()/on_switch() calls in step()
/// devirtualize, mirroring what models::replay_engine does for trace
/// replay; with `Bpu = bpu::IPredictor` this is exactly the legacy core.
template <class Bpu>
OooResult run_ooo(const OooConfig& cfg, Bpu& bpu, std::vector<trace::InstrStream*> threads,
                  std::uint64_t instr_budget, std::uint64_t warmup) {
  OooCoreT<Bpu> core(cfg, &bpu, std::move(threads));
  return core.run(instr_budget, warmup);
}

/// Same entry point over the double-precision reference core — the A/B
/// partner for run_ooo (the ooo_engine scenario's `int_speedup` field) and
/// the oracle the equivalence tests compare against.
template <class Bpu>
OooResult run_ooo_ref(const OooConfig& cfg, Bpu& bpu,
                      std::vector<trace::InstrStream*> threads,
                      std::uint64_t instr_budget, std::uint64_t warmup) {
  OooCoreRefT<Bpu> core(cfg, &bpu, std::move(threads));
  return core.run(instr_budget, warmup);
}

}  // namespace stbpu::sim
