// Instruction-level trace records for the cycle-level OoO simulator
// (DESIGN.md substitution #2). The generator wraps a branch stream and
// fills the gaps between branches with basic blocks whose instruction mix,
// register dependencies and memory locality follow the workload profile —
// what the Table IV machine model needs to produce IPC that responds to
// branch mispredictions and cache behaviour.
//
// The generator fills a structure-of-arrays InstrBlock in one call
// (next_block, which trace/pregen.h uses to materialize a whole run), and
// borrow_block() exposes already-materialized blocks zero-copy — the OoO
// cores' fetch windows consume pregenerated traces by pointer,
// regenerating nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bpu/types.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/stream.h"
#include "util/rng.h"

namespace stbpu::trace {

struct InstrRecord {
  enum class Kind : std::uint8_t { kAlu, kMul, kDiv, kFp, kLoad, kStore, kBranch };
  Kind kind = Kind::kAlu;
  std::uint8_t dst = 0;   ///< architectural destination register (0 = none)
  std::uint8_t src1 = 0;  ///< 0 = no register dependency (ready operand)
  std::uint8_t src2 = 0;
  bool streaming = false;      ///< unit-stride access (prefetcher-friendly)
  std::uint64_t mem_addr = 0;  ///< loads/stores
  bpu::BranchRecord branch;    ///< valid when kind == kBranch
};

/// SoA view of a run of instructions. Element i of every per-instruction
/// array describes the same instruction; branch payloads are compacted into
/// `branches`, indexed through the `branch_before` prefix count.
struct InstrBlock {
  std::vector<std::uint8_t> kind;  ///< InstrRecord::Kind values
  std::vector<std::uint8_t> dst;
  std::vector<std::uint8_t> src1;
  std::vector<std::uint8_t> src2;
  std::vector<std::uint8_t> streaming;
  std::vector<std::uint64_t> mem_addr;
  /// branch_before[i] = number of branches among instructions [0, i). For a
  /// branch instruction i its payload is branches[branch_before[i]].
  std::vector<std::uint32_t> branch_before;
  std::vector<bpu::BranchRecord> branches;  ///< compacted branch payloads

  [[nodiscard]] std::size_t size() const noexcept { return kind.size(); }
  [[nodiscard]] bool empty() const noexcept { return kind.empty(); }

  void clear() noexcept {
    kind.clear();
    dst.clear();
    src1.clear();
    src2.clear();
    streaming.clear();
    mem_addr.clear();
    branch_before.clear();
    branches.clear();
  }

  void reserve(std::size_t n) {
    kind.reserve(n);
    dst.reserve(n);
    src1.reserve(n);
    src2.reserve(n);
    streaming.reserve(n);
    mem_addr.reserve(n);
    branch_before.reserve(n);
    // Estimate for the compacted payloads (workload branch densities sit
    // near 1-in-5); whole-run pregeneration would otherwise copy tens of
    // MB of BranchRecords through doubling growth.
    branches.reserve(n / 4);
  }

  void push_back(const InstrRecord& r) {
    kind.push_back(static_cast<std::uint8_t>(r.kind));
    dst.push_back(r.dst);
    src1.push_back(r.src1);
    src2.push_back(r.src2);
    streaming.push_back(r.streaming ? 1 : 0);
    mem_addr.push_back(r.mem_addr);
    branch_before.push_back(static_cast<std::uint32_t>(branches.size()));
    if (r.kind == InstrRecord::Kind::kBranch) branches.push_back(r.branch);
  }

  [[nodiscard]] bool is_branch(std::size_t i) const noexcept {
    return static_cast<InstrRecord::Kind>(kind[i]) == InstrRecord::Kind::kBranch;
  }

  /// Branch payload of instruction i (which must be a branch).
  [[nodiscard]] const bpu::BranchRecord& branch(std::size_t i) const noexcept {
    assert(is_branch(i));
    return branches[branch_before[i]];
  }

  /// Reassemble the AoS record (interface-path consumers).
  [[nodiscard]] InstrRecord record(std::size_t i) const noexcept {
    InstrRecord r;
    r.kind = static_cast<InstrRecord::Kind>(kind[i]);
    r.dst = dst[i];
    r.src1 = src1[i];
    r.src2 = src2[i];
    r.streaming = streaming[i] != 0;
    r.mem_addr = mem_addr[i];
    if (r.kind == InstrRecord::Kind::kBranch) r.branch = branches[branch_before[i]];
    return r;
  }
};

class InstrStream {
 public:
  virtual ~InstrStream() = default;
  virtual bool next(InstrRecord& out) = 0;
  virtual void reset() = 0;

  /// Zero-copy fast path: expose up to `limit` already-materialized
  /// instructions as [start, start + n) of the returned block and advance
  /// past them. Returns nullptr (n = 0) when the stream has no contiguous
  /// SoA backing (on-the-fly generators) — callers fall back to next().
  /// The pointer stays valid until the next stream mutation.
  virtual const InstrBlock* borrow_block(std::size_t limit, std::size_t& start,
                                         std::size_t& n) {
    (void)limit;
    start = 0;
    n = 0;
    return nullptr;
  }

  /// True when borrow_block() serves from materialized storage — the signal
  /// the OoO cores use to fetch through the zero-copy window.
  [[nodiscard]] virtual bool contiguous() const noexcept { return false; }
};

/// Statistical basic-block expansion around a branch stream.
class SyntheticInstrGenerator final : public InstrStream {
 public:
  explicit SyntheticInstrGenerator(const WorkloadProfile& profile,
                                   std::uint64_t seed_override = 0)
      : profile_(profile),
        branches_(profile, seed_override),
        rng_((seed_override ? seed_override : profile.seed) ^ 0x1257ULL) {}

  bool next(InstrRecord& out) override { return produce(out); }

  /// Block fill: refill `out` with the next `limit` instructions, the
  /// identical per-record sequence (same RNG draws in the same order)
  /// written straight into the SoA arrays. Returns the number produced.
  std::size_t next_block(InstrBlock& out, std::size_t limit) {
    out.clear();
    InstrRecord r;
    while (out.size() < limit && produce(r)) out.push_back(r);
    return out.size();
  }

  void reset() override {
    branches_.reset();
    rng_ = util::Xoshiro256(profile_.seed ^ 0x1257ULL);
    block_remaining_ = 0;
    pending_branch_ = false;
    stream_ptr_ = 0;
    last_dst_ = 1;
  }

  [[nodiscard]] const WorkloadProfile& profile() const noexcept { return profile_; }

 private:
  bool produce(InstrRecord& out) {
    if (block_remaining_ == 0) {
      // Emit the branch ending the previous block, then size the next one.
      if (pending_branch_) {
        out = InstrRecord{};
        out.kind = InstrRecord::Kind::kBranch;
        out.branch = branch_;
        pending_branch_ = false;
        return true;
      }
      branches_.next(branch_);
      pending_branch_ = true;
      // Geometric block length with mean 1/density - 1 (>= 1).
      const double mean =
          std::max(1.0, 1.0 / std::max(0.01, profile_.branch_density) - 1.0);
      block_remaining_ = 1 + static_cast<unsigned>(-mean * std::log(1.0 - rng_.uniform()));
      if (block_remaining_ > 64) block_remaining_ = 64;
      // Dependency chains break at block boundaries: loop iterations and
      // separate blocks are mostly independent work (the source of ILP and
      // memory-level parallelism in real code).
      in_block_chain_ = false;
    }
    --block_remaining_;
    out = make_instr();
    return true;
  }

  InstrRecord make_instr() {
    InstrRecord r;
    const double u = rng_.uniform();
    double acc = profile_.load_frac;
    if (u < acc) {
      r.kind = InstrRecord::Kind::kLoad;
      data_address(r);
    } else if (u < (acc += profile_.store_frac)) {
      r.kind = InstrRecord::Kind::kStore;
      data_address(r);
    } else if (u < (acc += profile_.fp_frac)) {
      r.kind = InstrRecord::Kind::kFp;
    } else if (u < (acc += profile_.mul_frac)) {
      r.kind = InstrRecord::Kind::kMul;
    } else if (u < acc + 0.002) {
      r.kind = InstrRecord::Kind::kDiv;
    } else {
      r.kind = InstrRecord::Kind::kAlu;
    }
    // Register assignment: rotating destinations. With probability
    // `dep_chain` the first source is the previous destination (a serial
    // chain); otherwise operands are frequently already available
    // (constants, loop invariants, registers written long ago) — that
    // sparsity is what exposes ILP and memory-level parallelism.
    r.dst = static_cast<std::uint8_t>(1 + (last_dst_ % 31));
    if (in_block_chain_ && rng_.chance(profile_.dep_chain)) {
      r.src1 = last_dst_;  // serial chain within the current block
    } else if (rng_.chance(0.2)) {
      r.src1 = static_cast<std::uint8_t>(1 + rng_.below(31));
    }
    if (rng_.chance(0.15)) {
      r.src2 = static_cast<std::uint8_t>(1 + rng_.below(31));
    }
    last_dst_ = r.dst;
    ++last_dst_;
    in_block_chain_ = true;
    return r;
  }

  void data_address(InstrRecord& r) {
    const std::uint64_t ws_bytes = std::uint64_t{profile_.working_set_kb} * 1024;
    const std::uint64_t heap = 0x0000'7000'0000ULL;
    if (rng_.chance(profile_.stream_frac)) {
      stream_ptr_ = (stream_ptr_ + 8) % ws_bytes;  // unit-stride stream
      r.mem_addr = heap + stream_ptr_;
      r.streaming = true;
      return;
    }
    // Non-streaming accesses are still locality-skewed: most land in a hot
    // region (stack frames, hot nodes); the rest roam the full working set.
    const std::uint64_t hot_bytes =
        std::min<std::uint64_t>(ws_bytes, 512 * 1024);
    const std::uint64_t span = rng_.chance(0.8) ? hot_bytes : ws_bytes;
    r.mem_addr = heap + (rng_.below(span) & ~std::uint64_t{7});
  }

  WorkloadProfile profile_;
  SyntheticWorkloadGenerator branches_;
  util::Xoshiro256 rng_;
  unsigned block_remaining_ = 0;
  bool pending_branch_ = false;
  bool in_block_chain_ = false;
  bpu::BranchRecord branch_;
  std::uint64_t stream_ptr_ = 0;
  std::uint8_t last_dst_ = 1;
};

}  // namespace stbpu::trace
