// Remap memo-cache: direct-mapped software caches over the keyed remapping
// functions R1/R2/R3/R4/Rp. Rt is not memoized: TAGE folds change on
// every branch, so its keys rarely recur, and the batched rt_all kernel
// computes a whole access's Rt outputs for less than the probes cost.
//
// Rationale: between two ψ re-keys the R functions are pure in their inputs
// — the same (ψ, address[, history]) tuple always produces the same output,
// so the 3-round S/P-box mix() network (src/core/remap.h) can be memoized.
// The trace workloads re-execute the same branch sites millions of times,
// so R1/R3/Rp (keyed by address only) hit almost always, and R4 (keyed
// by address + history) hits whenever history patterns recur (loops). This
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
#include <span>
#include <vector>

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
  /// Per-function breakdown, indexed by Fn. kRtIndex/kRtTag stay at zero
  /// (Rt is computed, not memoized) and keep their slots for reporting.
  enum Fn : unsigned { kR1, kR2, kR3, kR4, kRtIndex, kRtTag, kRp, kR34, kFnCount };
  std::uint64_t fn_hits[kFnCount] = {};
  std::uint64_t fn_misses[kFnCount] = {};

  // Batch probe/fill accounting (CachedStbpuMapping::precompute). Demand
  // hits/misses above stay pure demand-side counters: an entry filled by
  // precompute and later consumed counts one batch_fill here and one
  // demand hit there — which is exactly the attribution the --cache-stats
  // side-channel wants.
  std::uint64_t batch_requests = 0;    ///< PredictRequests offered
  std::uint64_t batch_drops = 0;       ///< dropped (foreign ctx / no token yet)
  std::uint64_t batch_probe_hits = 0;  ///< probes already resident
  std::uint64_t batch_fills = 0;       ///< compacted misses computed + filled
  std::uint64_t fn_batch_fills[kFnCount] = {};
  std::uint64_t fn_batch_probe_hits[kFnCount] = {};

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
  // (R1/R3/Rp) track the hot branch-site working set; history-keyed caches
  // (R4/R2) see a new key whenever the history pattern is new — their
  // reuse is the immediate predict→update / lookup→train double call plus
  // loop-periodic patterns, which small caches capture without streaming
  // dirty lines through the hardware L2. The fused R3+R4 cache is the
  // exception: it doubles as the staging buffer of the batch-precompute
  // window, so it must hold a whole precompute chunk with low self-
  // eviction (a fill that is overwritten before its demand access wastes a
  // batched mix AND pays the scalar recompute) — 4096 entries keeps the
  // per-key eviction probability under ~12% at the 512-record window.
  static constexpr unsigned kSiteBits = 12;   ///< R1/R3/Rp: 4096 entries
  static constexpr unsigned kHistBits = 10;   ///< R2/R4: 1024 entries
  static constexpr unsigned kR34Bits = 12;    ///< fused R3+R4: 4096 entries

  explicit CachedStbpuMapping(STManager* stm)
      : stm_(stm),
        r1_(std::size_t{1} << kSiteBits),
        r2_(std::size_t{1} << kHistBits),
        r3_(std::size_t{1} << kSiteBits),
        r4_(std::size_t{1} << kHistBits),
        r34_(std::size_t{1} << kR34Bits),
        rp_(std::size_t{1} << kSiteBits) {}

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
        memo1<kSiteBits, RemapCacheStats::kR1>(r1_, ip & bpu::kVirtualAddressMask, psi,
                         [psi](std::uint64_t k0) {
                           return pack_r1(Remapper::r1(psi, k0));
                         });
    return unpack_r1(packed);
  }

  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                            const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    return memo1<kHistBits, RemapCacheStats::kR2>(r2_, bhb, psi,
                            [psi](std::uint64_t k0) { return Remapper::r2(psi, k0); });
  }

  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip,
                                               const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    return memo1<kSiteBits, RemapCacheStats::kR3>(r3_, ip & bpu::kVirtualAddressMask, psi,
                            [psi](std::uint64_t k0) { return Remapper::r3(psi, k0); });
  }

  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    // R4 consumes only kGhrBitsUsed GHR bits — key on the consumed slice so
    // equal-modulo-2^16 histories share an entry.
    return memo2<kHistBits, RemapCacheStats::kR4>(r4_, ip & bpu::kVirtualAddressMask,
                            util::bits(ghr, 0, Remapper::kGhrBitsUsed), psi,
                            [psi](std::uint64_t k0, std::uint64_t k1) {
                              return Remapper::r4(psi, k0, k1);
                            });
  }

  /// Fused R3+R4 probe — one lookup keyed (ip, GHR slice) returning both
  /// PHT indexes. The devirtualized SKLCond detects this method with
  /// `if constexpr` and replaces its two per-phase mapping calls; values
  /// are the identical R3/R4 outputs (on a miss R3 is fetched through its
  /// own cache, so only the truly fresh R4 pays a mix()).
  struct PhtIndexes {
    std::uint32_t i1, i2;
  };
  [[nodiscard]] PhtIndexes pht_indexes(std::uint64_t ip, std::uint64_t ghr,
                                       const bpu::ExecContext& ctx) const {
    const std::uint32_t psi = token(ctx).psi;
    const std::uint64_t k0 = ip & bpu::kVirtualAddressMask;
    const std::uint64_t k1 = util::bits(ghr, 0, Remapper::kGhrBitsUsed);
    const std::uint64_t packed = memo2<kR34Bits, RemapCacheStats::kR34>(
        r34_, k0, k1, psi, [&](std::uint64_t, std::uint64_t) {
          const std::uint32_t i1 =
              memo1<kSiteBits, RemapCacheStats::kR3>(r3_, k0, psi, [psi](std::uint64_t a) {
                return Remapper::r3(psi, a);
              });
          return static_cast<std::uint64_t>(i1) |
                 (static_cast<std::uint64_t>(Remapper::r4(psi, k0, k1)) << 32);
        });
    return {static_cast<std::uint32_t>(packed), static_cast<std::uint32_t>(packed >> 32)};
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
    return memo1<kSiteBits, RemapCacheStats::kRp>(rp_, k0, psi, [&](std::uint64_t) {
      return Remapper::rp(psi, ip, row_bits);
    });
  }

  // -------------------------------------------------------------------------
  // Batch probe/fill (the batch-native prediction API's mapping layer).
  // -------------------------------------------------------------------------

  /// Which R functions a precompute pass should warm — the engine sets this
  /// from its direction-predictor type at compile time (SKLCond reads the
  /// fused R3+R4 probe, the perceptron reads Rp, every branch reads R1).
  struct PrecomputeSelect {
    bool r1 = true;
    bool r34 = false;        ///< fused PHT indexes; consumes PredictRequest::ghr
    bool rp = false;         ///< perceptron row
    unsigned rp_row_bits = 0;
  };

  /// Lane width of the compacted miss list: enough independent mix chains
  /// to saturate the load ports (the mix_batch scenario measures the knee).
  static constexpr unsigned kMixLanes = 8;

  /// Probe the selected per-function caches for every request and compute
  /// the compacted miss list through detail::mix_batch — one batched kernel
  /// invocation per kMixLanes genuinely fresh keys instead of one
  /// latency-bound mix() per access. Entries filled here are bit-identical
  /// to what the demand path would compute (same Remapper extraction from
  /// the same mix), so warming is invisible to prediction statistics.
  ///
  /// Never fetches a secret token: STManager materializes tokens lazily
  /// from a shared PRNG, so creation *order* is architectural state a
  /// lookahead must not perturb. Requests for any entity other than the one
  /// the demand path has already established are dropped (counted), as is
  /// the whole span when a token mutation is pending — the demand path
  /// handles those cases exactly as before.
  void precompute(std::span<const bpu::PredictRequest> reqs,
                  const PrecomputeSelect& sel) const {
    stats_.batch_requests += reqs.size();
    if (!token_valid_ || stm_->mutations() != mutation_snapshot_) {
      stats_.batch_drops += reqs.size();
      return;
    }
    const std::uint32_t psi = token_.psi;
    MissLanes r1l, r34l, rpl;
    for (const bpu::PredictRequest& q : reqs) {
      if (q.ctx.pid != token_pid_ || q.ctx.kernel != token_kernel_) {
        ++stats_.batch_drops;
        continue;
      }
      const std::uint64_t a = q.ip & bpu::kVirtualAddressMask;
      if (sel.r1) {
        const std::size_t s = slot1<kSiteBits>(a);
        const Entry1<std::uint32_t>& e = r1_[s];
        if ((e.gen == generation_ && e.psi == psi && e.k0 == a) ||
            r1l.pending(a, 0, s)) {
          ++stats_.batch_probe_hits;
          ++stats_.fn_batch_probe_hits[RemapCacheStats::kR1];
        } else {
          r1l.add(a, 0, a, 0, s);
          if (r1l.n == kMixLanes) flush_r1(r1l, psi);
        }
      }
      if (q.type == bpu::BranchType::kConditional) {
        if (sel.r34) {
          const std::uint64_t g = util::bits(q.ghr, 0, Remapper::kGhrBitsUsed);
          const std::size_t s = slot2<kR34Bits>(a, g);
          const Entry2<std::uint64_t>& e = r34_[s];
          if ((e.gen == generation_ && e.psi == psi && e.k0 == a && e.k1 == g) ||
              r34l.pending(a, g, s)) {
            ++stats_.batch_probe_hits;
            ++stats_.fn_batch_probe_hits[RemapCacheStats::kR34];
          } else {
            r34l.add(a, g, a, g, s);
            if (r34l.n == kMixLanes) flush_r34(r34l, psi);
          }
        }
        if (sel.rp) {
          const std::uint64_t k0 =
              a | (std::uint64_t{sel.rp_row_bits} << 48);
          const std::size_t s = slot1<kSiteBits>(k0);
          const Entry1<std::uint32_t>& e = rp_[s];
          if ((e.gen == generation_ && e.psi == psi && e.k0 == k0) ||
              rpl.pending(k0, 0, s)) {
            ++stats_.batch_probe_hits;
            ++stats_.fn_batch_probe_hits[RemapCacheStats::kRp];
          } else {
            rpl.add(a, 0, k0, 0, s);
            if (rpl.n == kMixLanes) flush_rp(rpl, psi, sel.rp_row_bits);
          }
        }
      }
    }
    flush_r1(r1l, psi);
    flush_r34(r34l, psi);
    flush_rp(rpl, psi, sel.rp_row_bits);
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
  struct Entry1 {
    std::uint64_t k0 = 0;
    std::uint32_t psi = 0;
    std::uint32_t gen = 0;  ///< 0 = never filled (generation_ starts at 1)
    V value{};
  };
  template <class V>
  struct Entry2 {
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;
    std::uint32_t psi = 0;
    std::uint32_t gen = 0;
    V value{};
  };

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
  static std::size_t slot1(std::uint64_t k0) noexcept {
    return static_cast<std::size_t>((k0 * 0x9E3779B97F4A7C15ULL) >> (64 - Bits));
  }
  template <unsigned Bits>
  static std::size_t slot2(std::uint64_t k0, std::uint64_t k1) noexcept {
    const std::uint64_t h = (k0 * 0x9E3779B97F4A7C15ULL) ^ (k1 * 0xC2B2AE3D27D4EB4FULL);
    return static_cast<std::size_t>(h >> (64 - Bits));
  }

  /// Compacted miss list of one precompute pass: mix inputs plus the entry
  /// keys/slots needed to fill the cache once the batched kernel returns.
  struct MissLanes {
    std::uint64_t lo[kMixLanes];
    std::uint64_t hi[kMixLanes];
    std::uint64_t k0[kMixLanes];
    std::uint64_t k1[kMixLanes];
    std::size_t slot[kMixLanes];
    unsigned n = 0;

    void add(std::uint64_t lo_v, std::uint64_t hi_v, std::uint64_t k0_v,
             std::uint64_t k1_v, std::size_t slot_v) noexcept {
      lo[n] = lo_v;
      hi[n] = hi_v;
      k0[n] = k0_v;
      k1[n] = k1_v;
      slot[n] = slot_v;
      ++n;
    }

    /// True when the same key is already queued (cache entries only fill
    /// at flush, so a repeated key — e.g. one hot branch saturating the
    /// GHR slice — would otherwise probe-miss per occurrence and burn a
    /// mix lane recomputing the identical value). n <= kMixLanes keeps
    /// this a trivial scan, and it only runs on the probe-miss path.
    [[nodiscard]] bool pending(std::uint64_t k0_v, std::uint64_t k1_v,
                               std::size_t slot_v) const noexcept {
      for (unsigned i = 0; i < n; ++i) {
        if (slot[i] == slot_v && k0[i] == k0_v && k1[i] == k1_v) return true;
      }
      return false;
    }
  };

  /// Mix every pending lane under one (ψ, tweak): full batches go through
  /// the interleaved kernel, remainders through scalar mix() — identical
  /// outputs either way, so fills are indistinguishable from demand fills.
  template <std::uint64_t Tweak>
  void mix_lanes(const MissLanes& l, std::uint32_t psi,
                 std::uint64_t (&m)[kMixLanes]) const {
    if (l.n == kMixLanes) {
      // Dispatches to the AVX2 nibble-shuffle kernel when the host has it,
      // else byte-LUT lanes — NOT the 16-bit LUT: in isolation LUT16
      // batches are ~28% faster (mix_batch scenario), but their 256 KiB of
      // tables evict the predictor/PHT working set in-context, while the
      // byte LUTs stay resident in 512 bytes and the AVX2 S-boxes live in
      // registers outright.
      detail::mix_batch_dispatch<kMixLanes>(l.lo, l.hi, psi, Tweak, m);
    } else {
      for (unsigned i = 0; i < l.n; ++i) {
        m[i] = detail::mix(l.lo[i], l.hi[i], psi, Tweak);
      }
    }
  }

  void flush_r1(MissLanes& l, std::uint32_t psi) const {
    if (l.n == 0) return;
    std::uint64_t m[kMixLanes];
    mix_lanes<Remapper::kTweakR1>(l, psi, m);
    for (unsigned i = 0; i < l.n; ++i) {
      Entry1<std::uint32_t>& e = r1_[l.slot[i]];
      e.k0 = l.k0[i];
      e.psi = psi;
      e.gen = generation_;
      e.value = pack_r1(Remapper::r1_from_mix(m[i]));
    }
    stats_.batch_fills += l.n;
    stats_.fn_batch_fills[RemapCacheStats::kR1] += l.n;
    l.n = 0;
  }

  void flush_r34(MissLanes& l, std::uint32_t psi) const {
    if (l.n == 0) return;
    std::uint64_t m[kMixLanes];
    mix_lanes<Remapper::kTweakR4>(l, psi, m);
    for (unsigned i = 0; i < l.n; ++i) {
      // Mirror the fused demand miss: R3 comes through its own (address-
      // keyed, almost-always-hot) cache; only the genuinely fresh R4 was
      // worth a batched mix lane. Probed inline rather than via memo1 so
      // the demand-side hit/miss counters stay pure demand attribution —
      // an R3 computed here counts as a batch fill, not a demand miss.
      const std::uint64_t a = l.k0[i];
      Entry1<std::uint32_t>& r3e = r3_[slot1<kSiteBits>(a)];
      std::uint32_t i1;
      if (r3e.gen == generation_ && r3e.psi == psi && r3e.k0 == a) {
        i1 = r3e.value;
      } else {
        i1 = Remapper::r3(psi, a);
        r3e.k0 = a;
        r3e.psi = psi;
        r3e.gen = generation_;
        r3e.value = i1;
        ++stats_.batch_fills;
        ++stats_.fn_batch_fills[RemapCacheStats::kR3];
      }
      Entry2<std::uint64_t>& e = r34_[l.slot[i]];
      e.k0 = a;
      e.k1 = l.k1[i];
      e.psi = psi;
      e.gen = generation_;
      e.value = static_cast<std::uint64_t>(i1) |
                (static_cast<std::uint64_t>(Remapper::pht_from_mix(m[i])) << 32);
    }
    stats_.batch_fills += l.n;
    stats_.fn_batch_fills[RemapCacheStats::kR34] += l.n;
    l.n = 0;
  }

  void flush_rp(MissLanes& l, std::uint32_t psi, unsigned row_bits) const {
    if (l.n == 0) return;
    std::uint64_t m[kMixLanes];
    mix_lanes<Remapper::kTweakRp>(l, psi, m);
    for (unsigned i = 0; i < l.n; ++i) {
      Entry1<std::uint32_t>& e = rp_[l.slot[i]];
      e.k0 = l.k0[i];
      e.psi = psi;
      e.gen = generation_;
      e.value = Remapper::rp_from_mix(m[i], row_bits);
    }
    stats_.batch_fills += l.n;
    stats_.fn_batch_fills[RemapCacheStats::kRp] += l.n;
    l.n = 0;
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
    clear(r4_);
    clear(r34_);
    clear(rp_);
  }

  template <unsigned Bits, RemapCacheStats::Fn F, class V, class Fn>
  V memo1(std::vector<Entry1<V>>& table, std::uint64_t k0, std::uint32_t psi,
          Fn&& compute) const {
    Entry1<V>& e = table[slot1<Bits>(k0)];
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

  template <unsigned Bits, RemapCacheStats::Fn F, class V, class Fn>
  V memo2(std::vector<Entry2<V>>& table, std::uint64_t k0, std::uint64_t k1,
          std::uint32_t psi, Fn&& compute) const {
    Entry2<V>& e = table[slot2<Bits>(k0, k1)];
    if (e.gen == generation_ && e.psi == psi && e.k0 == k0 && e.k1 == k1) {
      ++stats_.hits;
      ++stats_.fn_hits[F];
      return e.value;
    }
    ++stats_.misses;
    ++stats_.fn_misses[F];
    e.k0 = k0;
    e.k1 = k1;
    e.psi = psi;
    e.gen = generation_;
    e.value = compute(k0, k1);
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
  mutable std::vector<Entry1<std::uint32_t>> r1_;  ///< packed set|tag|offset
  mutable std::vector<Entry1<std::uint32_t>> r2_;
  mutable std::vector<Entry1<std::uint32_t>> r3_;
  mutable std::vector<Entry2<std::uint32_t>> r4_;
  mutable std::vector<Entry2<std::uint64_t>> r34_;  ///< fused (R3 | R4<<32)
  mutable std::vector<Entry1<std::uint32_t>> rp_;
};

}  // namespace stbpu::core
