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
//     quantum in the model). It also attributes stall cycles (fetch
//     bandwidth, redirects, ROB/IQ/LQ/SQ occupancy) per thread.
//   * OooCoreRefT — the retained double-precision reference core, the
//     original AoS implementation kept verbatim so equivalence is asserted,
//     not assumed: for power-of-two widths every double the reference
//     computes is an exact multiple of 1/width, so the tick core's
//     cycles/IPC match it bit-for-bit and BranchStats are identical by
//     construction (tests/integration/ooo_typed_equivalence_test.cc,
//     tests/sim/ooo_core_test.cc).
//
// Both cores step the threads round-robin: round j is thread 0's j-th
// instruction, then thread 1's ((j, t) order). The reference core runs each
// step to the end before the next; the tick core runs up to kChunk rounds
// at a time as four passes:
//   1. fill — copy the chunk's instructions into per-core SoA buffers (bulk
//      from a borrowed InstrBlock, or next() per record) and list its
//      memory ops and branches in (j, t) order;
//   2. cache — CacheHierarchy::load_latency over the memory-op list;
//   3. BPU — on_switch/access (and statistics while measuring) over the
//      branch list;
//   4. timing — the tick recurrence over every step in (j, t) order.
// The split is exact: the cache and the BPU share no state, each still sees
// its accesses in (j, t) order, and the timing recurrence only reads their
// results (a load's latency, a branch's mispredict bit). The round alone
// decides warm-up or measurement, so a chunk stops at that boundary, where
// the stall counters (kept on every step) are snapshotted for subtraction.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
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
  /// Hit/miss counters of the core's cache hierarchy over the whole run
  /// (warm-up included), prefetch probes counted with demand accesses
  /// (CacheHierarchyCounters) — the cache simulation's fingerprint,
  /// asserted bit-equal across core variants by the equivalence tests.
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
/// structure-of-arrays state, run a chunk of rounds per pass (file comment).
/// A thread whose stream runs dry stops for good.
///
/// Template over the BPU type: with the default interface type this is the
/// classic polymorphic core; instantiated with a concrete engine type the
/// per-branch access() devirtualizes like the trace replay loop.
template <class Bpu = bpu::IPredictor>
class OooCoreT {
 public:
  /// Rounds per chunk (instruction-steps per thread per pass).
  static constexpr std::size_t kChunk = 256;

  /// `bpu` is shared between all threads (that sharing is the attack
  /// surface and the performance coupling under study).
  OooCoreT(const OooConfig& cfg, Bpu* bpu, std::vector<trace::InstrStream*> threads);

  /// Simulate `instr_budget` committed instructions per thread after
  /// `warmup` warm-up instructions per thread.
  OooResult run(std::uint64_t instr_budget, std::uint64_t warmup);

  [[nodiscard]] const CacheHierarchy& caches() const noexcept { return caches_; }

 private:
  using Kind = trace::InstrRecord::Kind;
  static constexpr unsigned kLoad = static_cast<unsigned>(Kind::kLoad);
  static constexpr unsigned kStore = static_cast<unsigned>(Kind::kStore);
  static constexpr unsigned kBranch = static_cast<unsigned>(Kind::kBranch);
  static constexpr std::size_t kKinds = kBranch + 1;
  static constexpr std::size_t kSlots = kMaxSmtThreads * kChunk;
  static_assert(kSlots <= 0x10000, "chunk lists hold 16-bit slot numbers");

  /// Geometry of one ring structure: logical size (the architectural
  /// occupancy limit) and a power-of-two storage mask.
  struct RingGeom {
    Tick offset = 0;   ///< within a thread's ring block
    Tick size = 0;     ///< logical occupancy (architectural share)
    Tick mask = 0;     ///< pow2 storage capacity - 1
  };

  /// Stall attribution, in ticks.
  struct StallTicks {
    Tick fetch_bw = 0, redirect = 0, rob = 0, iq = 0, lq = 0, sq = 0;
  };

  /// One thread's timing-recurrence state (stalls of every step, warm-up
  /// included).
  struct ThreadClock {
    Tick next_fetch = 0, redirect_until = 0, last_commit = 0;
    std::uint64_t count = 0;
    StallTicks stall;
  };

  /// One chunk's instructions. Thread t's j-th step of the chunk is slot
  /// t * kChunk + j; the lists hold slots in (j, t) order.
  struct Chunk {
    std::array<std::uint8_t, kSlots> kind, dst, src1, src2, streaming, mispredicted;
    std::array<std::uint64_t, kSlots> mem_addr;
    std::array<Tick, kSlots> lat;
    /// Ring-block index of the memory-queue entry a step waits for and of
    /// the one it writes (LQ for a load, SQ for a store, else zero/spare).
    std::array<std::uint32_t, kSlots> mq_read, mq_write;
    std::array<const bpu::BranchRecord*, kSlots> branch;
    std::array<bpu::BranchRecord, kSlots> branch_copy;  ///< next()-fed streams
    std::array<std::uint16_t, kSlots> mem_ops, branches;
  };

  /// Run `rounds` (<= kChunk) rounds through the four passes.
  void run_chunk(std::size_t rounds, bool measuring);
  /// Copy up to `rounds` instructions of thread t into its chunk slots;
  /// returns how many the stream had.
  std::size_t fill(unsigned t, std::size_t rounds);
  /// The timing recurrence over the chunk, for NT (== nthreads_) threads:
  /// with NT a constant, every thread's clock lives in registers.
  template <unsigned NT>
  void timing_pass(std::size_t rounds, const std::array<std::size_t, kMaxSmtThreads>& steps);

  OooConfig cfg_;
  Bpu* bpu_;
  CacheHierarchy caches_;
  unsigned nthreads_ = 1;

  // Precomputed tick constants (cycles × width). kind_lat_ is indexed by
  // InstrRecord::Kind; the cache pass adds the load latency to a load's 0.
  Tick depth_ticks_ = 0, penalty_ticks_ = 0;
  std::array<Tick, kKinds> kind_lat_{};

  // --- SoA pipeline state: parallel arrays indexed by thread -------------
  std::array<trace::InstrStream*, kMaxSmtThreads> streams_{};
  std::array<ThreadClock, kMaxSmtThreads> clock_{};
  std::array<std::uint64_t, kMaxSmtThreads> measured_{};
  /// Loads and stores so far, per thread (index 0 = LQ, 1 = SQ).
  std::array<std::array<std::uint64_t, 2>, kMaxSmtThreads> mq_count_{};
  std::array<bool, kMaxSmtThreads> done_{};
  std::array<bool, kMaxSmtThreads> has_ctx_{};
  std::array<bpu::ExecContext, kMaxSmtThreads> last_ctx_{};
  std::array<BranchStats, kMaxSmtThreads> stats_{};

  /// Register scoreboard: ready tick per architectural register (slot 0 is
  /// the "no dependency" register; every write to it is undone at once).
  std::array<std::array<Tick, kNumArchRegs + 1>, kMaxSmtThreads> reg_ready_{};

  /// All ring buffers, one flat allocation: thread t's block starts at
  /// t × ring_stride_ and holds [ROB | IQ | LQ | SQ | spare | zero] back to
  /// back, each ring with a power-of-two capacity. Instruction n writes its
  /// entry at (n & mask) and waits for the one at (n - size) & mask: the
  /// time written `size` instructions ago (0 while the ring fills), exactly
  /// the reference core's `ring[n % size]`. Steps that are neither loads
  /// nor stores write their memory-queue entry to the spare slot, never
  /// read, and wait for the zero slot, never written.
  std::vector<Tick> rings_;
  Tick ring_stride_ = 0;
  Tick spare_ = 0;
  RingGeom rob_, iq_;
  std::array<RingGeom, 2> mq_;  ///< LQ, SQ

  // Shared SMT clocks (one fetch port, one issue port, width per cycle).
  Tick shared_fetch_tick_ = 0, shared_issue_tick_ = 0;

  std::unique_ptr<Chunk> chunk_ = std::make_unique<Chunk>();
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

  const Tick w = cfg_.width;
  depth_ticks_ = Tick{cfg_.frontend_depth} * w;
  penalty_ticks_ = Tick{cfg_.mispredict_penalty} * w;
  static_assert(kLoad == 4 && kStore == 5 && kKinds == 7,
                "kind_lat_ lists the kinds in InstrRecord::Kind order");
  // A store's data is captured at once; its line is written back post-commit.
  kind_lat_ = {Tick{cfg_.lat_alu} * w, Tick{cfg_.lat_mul} * w, Tick{cfg_.lat_div} * w,
               Tick{cfg_.lat_fp} * w, 0, w, Tick{cfg_.lat_branch} * w};

  // Per-thread shares of the shared structures (same floor as the
  // reference core), stored with power-of-two capacity so the hot path
  // masks instead of dividing.
  const auto share = [&](unsigned total, unsigned floor_sz) {
    return std::max(floor_sz, total / nthreads_);
  };
  const auto geom = [](unsigned logical, Tick offset) {
    return RingGeom{offset, logical, std::bit_ceil(std::uint64_t{logical}) - 1};
  };
  rob_ = geom(share(cfg_.rob, 8), 0);
  iq_ = geom(share(cfg_.iq, 4), rob_.mask + 1);
  mq_[0] = geom(share(cfg_.lq, 4), iq_.offset + iq_.mask + 1);
  mq_[1] = geom(share(cfg_.sq, 4), mq_[0].offset + mq_[0].mask + 1);
  spare_ = mq_[1].offset + mq_[1].mask + 1;
  ring_stride_ = spare_ + 2;
  rings_.assign(std::size_t{ring_stride_} * nthreads_, Tick{0});

  for (unsigned t = 0; t < nthreads_; ++t) streams_[t] = threads[t];
}

template <class Bpu>
std::size_t OooCoreT<Bpu>::fill(const unsigned t, const std::size_t rounds) {
  Chunk& c = *chunk_;
  const std::size_t base = std::size_t{t} * kChunk;
  trace::InstrStream& stream = *streams_[t];
  std::size_t n = 0;
  if (stream.contiguous()) {
    // The stream lends runs of its own SoA block; copy them.
    while (n < rounds) {
      std::size_t start = 0, got = 0;
      const trace::InstrBlock* b = stream.borrow_block(rounds - n, start, got);
      if (b == nullptr) break;
      const std::size_t s = base + n;
      std::copy_n(b->kind.data() + start, got, c.kind.data() + s);
      std::copy_n(b->dst.data() + start, got, c.dst.data() + s);
      std::copy_n(b->src1.data() + start, got, c.src1.data() + s);
      std::copy_n(b->src2.data() + start, got, c.src2.data() + s);
      std::copy_n(b->streaming.data() + start, got, c.streaming.data() + s);
      std::copy_n(b->mem_addr.data() + start, got, c.mem_addr.data() + s);
      // A non-branch's pointer is never read (it may be one past the end).
      const bpu::BranchRecord* payloads = b->branches.data();
      for (std::size_t i = 0; i < got; ++i) {
        c.branch[s + i] = payloads + b->branch_before[start + i];
      }
      n += got;
    }
    return n;
  }
  trace::InstrRecord r;
  for (; n < rounds && stream.next(r); ++n) {
    const std::size_t s = base + n;
    c.kind[s] = static_cast<std::uint8_t>(r.kind);
    c.dst[s] = r.dst;
    c.src1[s] = r.src1;
    c.src2[s] = r.src2;
    c.streaming[s] = r.streaming ? 1 : 0;
    c.mem_addr[s] = r.mem_addr;
    c.branch_copy[s] = r.branch;
    c.branch[s] = &c.branch_copy[s];
  }
  return n;
}

template <class Bpu>
void OooCoreT<Bpu>::run_chunk(const std::size_t rounds, const bool measuring) {
  Chunk& c = *chunk_;
  // --- fill: this chunk's instructions, then its memory-op and branch
  // lists in (j, t) order — the order the reference core accesses them in.
  std::array<std::size_t, kMaxSmtThreads> steps{};  // per thread
  for (unsigned t = 0; t < nthreads_; ++t) {
    steps[t] = done_[t] ? 0 : fill(t, rounds);
    done_[t] = steps[t] < rounds;
    if (measuring) measured_[t] += steps[t];
  }
  std::size_t mem_ops = 0, branches = 0;
  for (std::size_t j = 0; j < rounds; ++j) {
    for (unsigned t = 0; t < nthreads_; ++t) {
      if (j >= steps[t]) continue;
      const std::size_t s = std::size_t{t} * kChunk + j;
      const unsigned kind = c.kind[s];
      assert(kind < kKinds && "trace instruction kind out of range");
      c.lat[s] = kind_lat_[kind];
      c.mispredicted[s] = 0;
      c.mq_read[s] = static_cast<std::uint32_t>(spare_ + 1);
      c.mq_write[s] = static_cast<std::uint32_t>(spare_);
      c.mem_ops[mem_ops] = static_cast<std::uint16_t>(s);
      mem_ops += kind == kLoad || kind == kStore;
      c.branches[branches] = static_cast<std::uint16_t>(s);
      branches += kind == kBranch;
    }
  }

  // --- cache: loads take the hierarchy's latency; stores allocate on
  // write and keep their fixed latency. Each op also takes its thread's
  // next LQ (load) or SQ (store) entry.
  const Tick width = cfg_.width;
  for (std::size_t i = 0; i < mem_ops; ++i) {
    const std::size_t s = c.mem_ops[i];
    const Tick lat = caches_.load_latency(c.mem_addr[s], c.streaming[s] != 0);
    const unsigned q = c.kind[s] == kStore;
    c.lat[s] += lat * width * (1 - q);
    const RingGeom& g = mq_[q];
    std::uint64_t& count = mq_count_[s / kChunk][q];
    c.mq_read[s] = static_cast<std::uint32_t>(g.offset + ((count - g.size) & g.mask));
    c.mq_write[s] = static_cast<std::uint32_t>(g.offset + (count & g.mask));
    ++count;
  }

  // --- BPU: the shared predictor sees every branch in (j, t) order.
  for (std::size_t i = 0; i < branches; ++i) {
    const std::size_t s = c.branches[i];
    const unsigned t = static_cast<unsigned>(s / kChunk);
    bpu::BranchRecord br = *c.branch[s];
    br.ctx.hart = static_cast<std::uint8_t>(t);  // hart assigned by the core
    if (has_ctx_[t] && !(last_ctx_[t] == br.ctx)) {
      bpu_->on_switch(last_ctx_[t], br.ctx);
      if (measuring) {
        ++(last_ctx_[t].pid != br.ctx.pid ? stats_[t].context_switches
                                          : stats_[t].mode_switches);
      }
    }
    last_ctx_[t] = br.ctx;
    has_ctx_[t] = true;
    const bpu::AccessResult access = bpu_->access(br);
    c.mispredicted[s] = access.overall_correct ? 0 : 1;
    if (measuring) stats_[t].absorb(br, access);
  }

  if (nthreads_ == 1) {
    timing_pass<1>(rounds, steps);
  } else {
    timing_pass<kMaxSmtThreads>(rounds, steps);
  }
}

/// The delay `until` adds to an event at `at`, charged to `stall`.
inline Tick stall_until(const Tick at, const Tick until, Tick& stall) {
  const Tick t = std::max(at, until);
  stall += t - at;
  return t;
}

template <class Bpu>
template <unsigned NT>
void OooCoreT<Bpu>::timing_pass(const std::size_t rounds,
                                const std::array<std::size_t, kMaxSmtThreads>& steps) {
  const Chunk& c = *chunk_;
  // State in locals, which the ring and scoreboard stores cannot alias.
  std::array<ThreadClock, NT> clock;
  std::copy_n(clock_.begin(), NT, clock.begin());
  Tick shared_fetch = shared_fetch_tick_;
  Tick shared_issue = shared_issue_tick_;
  const RingGeom rob = rob_, iq = iq_;
  const Tick depth = depth_ticks_, penalty = penalty_ticks_;
  Tick* const all_rings = rings_.data();
  const Tick stride = ring_stride_;

  for (std::size_t j = 0; j < rounds; ++j) {
    for (unsigned t = 0; t < NT; ++t) {
      if (j >= steps[t]) continue;
      const std::size_t s = std::size_t{t} * kChunk + j;
      ThreadClock& k = clock[t];
      StallTicks& stall = k.stall;
      Tick* const rings = all_rings + t * stride;
      Tick* const regs = reg_ready_[t].data();
      const bool is_store = c.kind[s] == kStore;

      // --- fetch: thread redirect stall + shared fetch bandwidth ---------
      Tick fetch = stall_until(k.next_fetch, k.redirect_until, stall.redirect);
      fetch = stall_until(fetch, shared_fetch, stall.fetch_bw);
      shared_fetch = fetch + 1;
      k.next_fetch = fetch;

      // --- dispatch: ROB / IQ / LQ / SQ occupancy -------------------------
      // Each constraint is blamed for the delay it adds after the previous
      // ones (pipeline order ROB → IQ → LQ → SQ), so the counters sum to
      // the total dispatch stall without double counting. A step waits on
      // at most one of LQ and SQ.
      const std::uint64_t n = k.count;
      Tick dispatch = fetch + depth;
      dispatch = stall_until(dispatch, rings[rob.offset + ((n - rob.size) & rob.mask)], stall.rob);
      dispatch = stall_until(dispatch, rings[iq.offset + ((n - iq.size) & iq.mask)], stall.iq);
      const Tick mq_ready = std::max(dispatch, rings[c.mq_read[s]]);
      const Tick store_mask = Tick{0} - is_store;
      stall.lq += (mq_ready - dispatch) & ~store_mask;
      stall.sq += (mq_ready - dispatch) & store_mask;
      dispatch = mq_ready;

      // --- issue: dataflow + shared issue bandwidth (register 0 reads 0) --
      assert(c.dst[s] <= kNumArchRegs && c.src1[s] <= kNumArchRegs &&
             c.src2[s] <= kNumArchRegs && "trace register index exceeds kNumArchRegs");
      const Tick ready = std::max({dispatch, regs[c.src1[s]], regs[c.src2[s]]});
      const Tick issue = std::max(ready, shared_issue);
      shared_issue = issue + 1;
      rings[iq.offset + (n & iq.mask)] = issue;

      // --- execute --------------------------------------------------------
      const Tick complete = issue + c.lat[s];
      regs[c.dst[s]] = complete;
      regs[0] = 0;

      // --- resolve branches: a mispredict squashes the front end, which
      // refills from the correct path once the branch resolves (younger
      // wrong-path work is penalty-modelled). Rare, so a branch, not a select.
      if (c.mispredicted[s]) {
        k.redirect_until = std::max(k.redirect_until, complete + penalty);
      }

      // --- commit: in order, width per cycle ------------------------------
      const Tick commit = std::max(complete, k.last_commit + 1);
      k.last_commit = commit;
      rings[rob.offset + (n & rob.mask)] = commit;
      // A load's LQ entry frees at completion, a store's SQ entry at commit.
      rings[c.mq_write[s]] = is_store ? commit : complete;
      k.count = n + 1;
    }
  }
  std::copy_n(clock.begin(), NT, clock_.begin());
  shared_fetch_tick_ = shared_fetch;
  shared_issue_tick_ = shared_issue;
}

template <class Bpu>
OooResult OooCoreT<Bpu>::run(std::uint64_t instr_budget, std::uint64_t warmup) {
  OooResult result;
  result.threads = nthreads_;

  // Round-robin rounds (so SMT contention is realistic), chunk by chunk,
  // until every thread has its share or has run dry.
  const auto run_rounds = [&](std::uint64_t rounds, bool measuring) {
    const auto live = [&] { return std::count(done_.begin(), done_.begin() + nthreads_, false); };
    while (rounds > 0 && live() > 0) {
      const std::size_t r = static_cast<std::size_t>(std::min<std::uint64_t>(rounds, kChunk));
      run_chunk(r, measuring);
      rounds -= r;
    }
  };
  run_rounds(warmup, false);
  // Measurement boundary: the stall counters ran through warm-up too.
  const std::array<ThreadClock, kMaxSmtThreads> start = clock_;
  run_rounds(instr_budget, true);

  // Report: cycles/IPC reconstructed from ticks. For power-of-two widths
  // tick/width is an exact double, so these match the reference core
  // bit-for-bit; for other widths the tick numbers are the *more* exact
  // ones (the reference accumulates 1/width rounding). A thread finishes
  // at its last commit, whether it reached its budget or ran dry.
  const auto cyc = [&](Tick end, Tick begin) { return static_cast<double>(end - begin) / cfg_.width; };
  for (unsigned t = 0; t < nthreads_; ++t) {
    const StallTicks &s = clock_[t].stall, &s0 = start[t].stall;
    const double cycles = std::max(1.0, cyc(clock_[t].last_commit, start[t].last_commit));
    result.instructions[t] = measured_[t];
    result.cycles[t] = cycles;
    result.ipc[t] = static_cast<double>(measured_[t]) / cycles;
    result.branch_stats[t] = stats_[t];
    result.stalls[t] = {.fetch_bandwidth = cyc(s.fetch_bw, s0.fetch_bw),
                        .redirect = cyc(s.redirect, s0.redirect),
                        .rob = cyc(s.rob, s0.rob),
                        .iq = cyc(s.iq, s0.iq),
                        .lq = cyc(s.lq, s0.lq),
                        .sq = cyc(s.sq, s0.sq)};
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

/// Same entry point over the double-precision reference core — the oracle
/// the equivalence tests compare the tick core against.
template <class Bpu>
OooResult run_ooo_ref(const OooConfig& cfg, Bpu& bpu,
                      std::vector<trace::InstrStream*> threads,
                      std::uint64_t instr_budget, std::uint64_t warmup) {
  OooCoreRefT<Bpu> core(cfg, &bpu, std::move(threads));
  return core.run(instr_budget, warmup);
}

}  // namespace stbpu::sim
