// Remap memo-cache: direct-mapped software caches over the keyed remapping
// functions R1/R2/R3/Rp. Rt and R4 are not memoized: their history keys
// (TAGE folds, the 16-bit GHR slice) rarely recur, so a probe mostly
// misses and costs more than computing the value directly (the batched
// rt_all kernel computes a whole access's Rt outputs).
//
// Rationale: between two ψ re-keys the R functions are pure in their inputs
// — the same (ψ, address[, history]) tuple always produces the same output,
// so the 3-round S/P-box mix() network (src/core/remap.h) can be memoized.
// The trace workloads re-execute the same branch sites millions of times,
// so R1/R3/Rp (keyed by address only) hit almost always. This
// is the dominant cost of STBPU simulation — CIBPU (Zhou et al., 2025)
// makes the same observation about keyed index functions.
//
// Correctness contract (bit-identical to direct Remapper calls):
//   * every entry is tagged with the complete input tuple AND the ψ that
//     produced it — a ψ re-randomization (Monitor-triggered or explicit)
//     can therefore never serve a stale value: the tag mismatches and the
//     entry recomputes. ψ does not depend on the hart, so SMT interleaving
//     needs no flushes either;
//   * the current entity's SecretToken is itself memoized; the cache
//     watches STManager::mutations() so any token change (re-key, explicit
//     write, share-group edit) refetches the token AND empties the value
//     caches before the next lookup;
//   * entries are additionally stamped with a generation counter.
//     invalidate_all() bumps it (O(1) — no array sweep), emptying the
//     cache; the engine also calls it on context switches (belt and
//     braces — the ψ tags already prevent cross-entity reuse).
#pragma once

#include <cstdint>
#include <array>

#include "bpu/mapping.h"
#include "bpu/types.h"
#include "core/remap.h"
#include "core/secret_token.h"
#include "util/bits.h"

namespace stbpu::core {

struct RemapCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< whole-cache generation bumps
  /// Per-function breakdown, indexed by Fn. kR4, kRtIndex, kRtTag and
  /// kR34 stay at zero (R4 and Rt are computed, not memoized); the last
  /// three are read by perfbench/layers.cc; remove with the next benchmark
  /// change.
  enum Fn : unsigned { kR1, kR2, kR3, kR4, kRtIndex, kRtTag, kRp, kR34, kFnCount };
  std::uint64_t fn_hits[kFnCount] = {};
  std::uint64_t fn_misses[kFnCount] = {};

  /// Read by perfbench/layers.cc; remove with the next benchmark change.
  /// Always 0: every entry is filled by a demand miss.
  std::uint64_t batch_fills = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  [[nodiscard]] static const char* fn_name(unsigned f) {
    constexpr const char* kNames[kFnCount] = {"r1",       "r2",     "r3", "r4",
                                              "rt_index", "rt_tag", "rp", "r34"};
    return f < kFnCount ? kNames[f] : "?";
  }
};

/// Non-virtual STBPU mapping with memoized R functions. Drop-in for
/// StbpuMappingLogic in the templated engine (same method set); the φ
/// target codec is a single XOR and is not cached.
class CachedStbpuMapping {
 public:
  /// Marks this mapping as memoized/pure-between-rekeys: templated
  /// predictors may reuse R outputs across the predict/train phases of one
  /// access (ψ is stable within an access — the monitor fires at its end).
  static constexpr bool kRemapAware = true;

  // Per-function capacities matched to key churn: address-keyed caches
  // (R1/R3/Rp) track the hot branch-site working set; the history-keyed
  // R2 cache sees a new key whenever the BHB pattern is new — its reuse is
  // the immediate lookup→train double call plus loop-periodic patterns,
  // which a small cache captures without streaming dirty lines through the
  // hardware L2.
  static constexpr unsigned kSiteBits = 12;   ///< R1/R3/Rp: 4096 entries
  static constexpr unsigned kHistBits = 10;   ///< R2: 1024 entries

  explicit CachedStbpuMapping(STManager* stm) : stm_(stm) {}

  // R1 output packs into 22 bits (9 set + 8 tag + 5 offset) — stored as
  // one word so the hot entry stays 24 bytes.
  [[nodiscard]] static constexpr std::uint32_t pack_r1(const bpu::BtbIndex& idx) noexcept {
    return idx.set | (static_cast<std::uint32_t>(idx.tag) << 9) | (idx.offset << 17);
  }
  [[nodiscard]] static constexpr bpu::BtbIndex unpack_r1(std::uint32_t packed) noexcept {
    return bpu::BtbIndex{.set = packed & 0x1FFu,
                         .tag = (packed >> 9) & 0xFFu,
                         .offset = packed >> 17};
  }

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip,
                                        const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    const std::uint32_t packed =
        memo<kSiteBits, RemapCacheStats::kR1>(r1_, ip & bpu::kVirtualAddressMask, psi,
                                              [psi](std::uint64_t k0) {
                                                return pack_r1(Remapper::r1(psi, k0));
                                              });
    return unpack_r1(packed);
  }

  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                            const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    return memo<kHistBits, RemapCacheStats::kR2>(
        r2_, bhb, psi, [psi](std::uint64_t k0) { return Remapper::r2(psi, k0); });
  }

  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip,
                                               const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    return memo<kSiteBits, RemapCacheStats::kR3>(
        r3_, ip & bpu::kVirtualAddressMask, psi,
        [psi](std::uint64_t k0) { return Remapper::r3(psi, k0); });
  }

  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const bpu::ExecContext& ctx) const {
    return Remapper::r4(token(ctx).psi, ip, ghr);
  }

  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const bpu::ExecContext& ctx) const {
    return util::bits(target, 0, 32) ^ token(ctx).phi;
  }

  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const bpu::ExecContext& ctx) const {
    const std::uint64_t lo = (stored ^ token(ctx).phi) & 0xFFFF'FFFFULL;
    return (branch_ip & 0xFFFF'0000'0000ULL) | lo;
  }

  [[nodiscard]] std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                         unsigned table, unsigned index_bits,
                                         const bpu::ExecContext& ctx) const {
    return Remapper::rt_index(token(ctx).psi, ip, folded_hist, table, index_bits);
  }

  [[nodiscard]] std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                       unsigned table, unsigned tag_bits,
                                       const bpu::ExecContext& ctx) const {
    return Remapper::rt_tag(token(ctx).psi, ip, folded_hist, table, tag_bits);
  }

  /// Batched Rt (the bpu::RtBatch capability): every tagged table's index
  /// and tag for one TAGE access, plus the loop tag when `loop_tag_out` is
  /// non-null, through Remapper::rt_all. ψ comes from one token(ctx) call,
  /// so token creation happens where the first per-table call used to.
  void tage_rt_all(std::uint64_t ip, const std::uint64_t* index_keys,
                   const std::uint64_t* tag_keys, unsigned n, unsigned index_bits,
                   unsigned tag_bits, std::uint32_t* idx_out, std::uint32_t* tag_out,
                   std::uint32_t* loop_tag_out, const bpu::ExecContext& ctx) const {
    Remapper::rt_all(token(ctx).psi, ip, index_keys, tag_keys, n, index_bits, tag_bits,
                     idx_out, tag_out, loop_tag_out);
  }

  [[nodiscard]] std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                             const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    const std::uint64_t k0 =
        (ip & bpu::kVirtualAddressMask) | (std::uint64_t{row_bits} << 48);
    return memo<kSiteBits, RemapCacheStats::kRp>(rp_, k0, psi, [&](std::uint64_t) {
      return Remapper::rp(psi, ip, row_bits);
    });
  }

  /// Empty every cached entry (O(1) generation bump). Called by the engine
  /// on context switches; token mutations are also caught automatically.
  void invalidate_all() const {
    ++stats_.invalidations;
    if (++generation_ == 0) {
      // 2^32 bumps wrapped the counter: entries stamped in the previous
      // epoch would otherwise read as current again and serve stale values.
      // Hard-clear every table once (the only non-O(1) invalidation, once
      // per 4G bumps) and restart at 1 so gen 0 stays the never-filled
      // sentinel.
      hard_clear();
      generation_ = 1;
    }
  }

  /// Test hook: place the generation counter near the wrap point so the
  /// wraparound sweep is reachable without 2^32 invalidations. 0 is mapped
  /// to 1 (the sentinel must stay unreachable).
  void debug_set_generation(std::uint32_t gen) const {
    generation_ = gen == 0 ? 1 : gen;
  }
  [[nodiscard]] std::uint32_t debug_generation() const noexcept { return generation_; }

  [[nodiscard]] const RemapCacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] STManager& tokens() const noexcept { return *stm_; }

 private:
  template <class V>
  struct Entry {
    std::uint64_t k0 = 0;
    std::uint32_t psi = 0;
    std::uint32_t gen = 0;  ///< 0 = never filled (generation_ starts at 1)
    V value{};
  };
  /// Tables are held inline (their sizes are compile-time constants), so a
  /// mapping is one ~312 KB object: build it in place, as EngineT does,
  /// rather than copying it.
  template <class V, unsigned Bits>
  using Table = std::array<Entry<V>, std::size_t{1} << Bits>;

  /// Current entity's SecretToken, memoized per (pid, kernel). Any
  /// STManager mutation (re-key, explicit write, share edit) refetches and
  /// empties the value caches — stale ψ or φ can never be served.
  [[nodiscard]] const SecretToken& token(const bpu::ExecContext& ctx) const {
    const std::uint64_t mut = stm_->mutations();
    if (mut != mutation_snapshot_) {
      mutation_snapshot_ = mut;
      token_valid_ = false;
      invalidate_all();
    }
    if (!token_valid_ || ctx.pid != token_pid_ || ctx.kernel != token_kernel_) {
      token_ = stm_->token(ctx);
      token_pid_ = ctx.pid;
      token_kernel_ = ctx.kernel;
      token_valid_ = true;
    }
    return token_;
  }

  template <unsigned Bits>
  static std::size_t slot(std::uint64_t k0) noexcept {
    return static_cast<std::size_t>((k0 * 0x9E3779B97F4A7C15ULL) >> (64 - Bits));
  }

  /// Wipe the generation stamp of every entry in every table — only the
  /// generation-wrap path pays this sweep.
  void hard_clear() const {
    const auto clear = [](auto& table) {
      for (auto& e : table) e.gen = 0;
    };
    clear(r1_);
    clear(r2_);
    clear(r3_);
    clear(rp_);
  }

  template <unsigned Bits, RemapCacheStats::Fn F, class V, class Fn>
  V memo(Table<V, Bits>& table, std::uint64_t k0, std::uint32_t psi, Fn&& compute) const {
    Entry<V>& e = table[slot<Bits>(k0)];
    if (e.gen == generation_ && e.psi == psi && e.k0 == k0) {
      ++stats_.hits;
      ++stats_.fn_hits[F];
      return e.value;
    }
    ++stats_.misses;
    ++stats_.fn_misses[F];
    e.k0 = k0;
    e.psi = psi;
    e.gen = generation_;
    e.value = compute(k0);
    return e.value;
  }



  STManager* stm_;
  mutable std::uint32_t generation_ = 1;
  mutable std::uint64_t mutation_snapshot_ = 0;
  mutable SecretToken token_{};
  mutable std::uint16_t token_pid_ = 0;
  mutable bool token_kernel_ = false;
  mutable bool token_valid_ = false;
  mutable RemapCacheStats stats_;
  mutable Table<std::uint32_t, kSiteBits> r1_{};  ///< packed set|tag|offset
  mutable Table<std::uint32_t, kHistBits> r2_{};
  mutable Table<std::uint32_t, kSiteBits> r3_{};
  mutable Table<std::uint32_t, kSiteBits> rp_{};
};

}  // namespace stbpu::core
