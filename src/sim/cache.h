// Set-associative cache hierarchy for the OoO model (Table IV: L1-D 32KB
// 8-way, L2 256KB 4-way, LLC 4MB 16-way). LRU replacement, 64-byte lines,
// inclusive fills. Shared between SMT threads, so cross-thread conflict
// misses arise naturally.
//
// Metadata layout: two arrays, both indexed by set.
//   * Tags: one u64 per way, `ways` per set. ~0 marks an invalid way; a
//     real tag is a line address (below 2^58), so it never equals ~0.
//   * Ranks: each way's exact LRU position within its set (0 = least
//     recent, ways-1 = most recent) as one signed byte lane. A set's lanes
//     fill ceil(ways/16) 16-byte chunks; unused lanes hold 0x80 (-128),
//     which is never zero and never greater than a rank.
// The ranks of a set are always a permutation of 0..ways-1, so the only
// per-way branch of an access is the tag scan's hit exit:
//   * hit: the scan stops at the way holding the tag; the pivot is that
//     way's rank;
//   * miss: the victim is the single rank-0 lane; its tag is overwritten
//     and the pivot is 0;
//   * both: the touched way is the lane equal to the pivot. Every lane
//     ranked above the pivot drops by one and the touched lane rises to
//     ways-1: per chunk, one signed compare-gt, one compare-eq and adds.
// The chunk arithmetic is written once with GCC/Clang vector extensions,
// which lower to SSE2 pcmpgtb/pcmpeqb/paddb on x86-64 and to portable code
// elsewhere.
//
// This reproduces the original global-clock LRU bit for bit:
//   * the old victim was the set's minimum clock value, scan order breaking
//     ties among never-touched ways (all clock 0) — i.e. exactly the
//     rank-0 way, with untouched ways holding the lowest ranks in way
//     order (promotions preserve the relative order of the rest);
//   * a hit/fill promoted the way to the set maximum — i.e. rank ways-1,
//     every rank above the old position sliding down by one;
//   * flush() invalidated tags but kept clocks, so the post-flush victim
//     order was the pre-flush recency order — ranks are simply kept.
// tests/sim/cache_test.cc replays adversarial (mcf-like miss-heavy) access
// sequences against a retained reference implementation of the old layout
// and asserts hit/miss sequences and counters are identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace stbpu::sim {

struct CacheLevelConfig {
  std::uint32_t size_kb = 32;
  std::uint32_t ways = 8;
  std::uint32_t latency = 4;  ///< cycles on hit at this level
};

class CacheLevel {
 public:
  static constexpr std::uint32_t kLineBytes = 64;
  /// Every rank and every way number + 1 must fit a signed byte lane.
  static constexpr std::uint32_t kMaxWays = 64;
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  /// Throws std::invalid_argument unless 1 <= ways <= 64 and the level
  /// holds at least one set (size_kb * 1024 >= 64 * ways).
  explicit CacheLevel(const CacheLevelConfig& cfg)
      : cfg_(validated(cfg)),
        sets_(std::uint64_t{cfg.size_kb} * 1024 / kLineBytes / cfg.ways),
        set_shift_(std::has_single_bit(sets_) ? std::countr_zero(sets_) : 0),
        chunks_((cfg.ways + kLanes - 1) / kLanes),
        tags_(sets_ * cfg.ways, kInvalidTag),
        ranks_(sets_ * chunks_) {
    // Initial ranks in way order, so the first misses fill way 0, 1, ... —
    // the old clock scheme's tie-break. Every set starts like the first.
    for (std::uint32_t way = 0; way < chunks_ * kLanes; ++way) {
      ranks_[way / kLanes][way % kLanes] =
          way < cfg.ways ? static_cast<std::int8_t>(way) : kUnusedLane;
    }
    for (std::size_t i = chunks_; i < ranks_.size(); ++i) ranks_[i] = ranks_[i - chunks_];
  }

  /// True on hit; on miss the line is filled (LRU victim).
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / kLineBytes;
    // Every Table IV geometry has a power-of-two set count, so the set/tag
    // split is a shift+mask on the hot path; the divide stays as the exact
    // fallback for odd configs (identical values either way — this is the
    // cycle-level simulator's hottest function, see ROADMAP).
    std::uint64_t set;
    std::uint64_t tag;
    if (set_shift_ != 0 || sets_ == 1) {
      set = line & (sets_ - 1);
      tag = line >> set_shift_;
    } else {
      set = line % sets_;
      tag = line / sets_;
    }
    const std::uint32_t ways = cfg_.ways;
    std::uint64_t* t = tags_.data() + set * ways;
    RankChunk* r = ranks_.data() + set * chunks_;

    // The touched way's rank: the hit way's (a set's tags are distinct), or
    // 0 for the LRU victim. An early-exit scan beats building a match mask:
    // its branch is the hit/miss outcome the caller branches on anyway.
    bool hit = false;
    std::int8_t pivot = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (t[w] == tag) {
        hit = true;
        pivot = r[w / kLanes][w % kLanes];
        break;
      }
    }
    // The touched lane is the one equal to the pivot (ranks are a
    // permutation): it rises to ways-1 while every lane above the pivot
    // slides down (a true compare is -1). Whole-chunk stores only, so the
    // next access's chunk loads forward from them. `found` sums each
    // touched lane's way + 1 for the miss path.
    const RankChunk above = RankChunk{} + pivot;
    const RankChunk lift = RankChunk{} + static_cast<std::int8_t>(ways - 1 - pivot);
    RankChunk found{};
    RankChunk way_plus1{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    for (std::uint32_t k = 0, chunks = chunks_; k < chunks; ++k) {
      const RankChunk touched = r[k] == above;
      found += touched & way_plus1;
      way_plus1 += static_cast<std::int8_t>(kLanes);
      r[k] += (r[k] > above) + (touched & lift);
    }
    if (hit) {
      ++hits_;
      return true;
    }
    t[byte_sum(found) - 1] = tag;
    ++misses_;
    return false;
  }

  void flush() {
    // Invalidate tags but keep recency ranks (the old layout kept the LRU
    // clocks), so the post-flush fill order is the pre-flush LRU order.
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  }

  [[nodiscard]] std::uint32_t latency() const noexcept { return cfg_.latency; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  /// One chunk of 16 rank lanes.
  using RankChunk = std::int8_t __attribute__((vector_size(16)));
  static constexpr std::uint32_t kLanes = sizeof(RankChunk);
  static constexpr std::int8_t kUnusedLane = -128;

  static const CacheLevelConfig& validated(const CacheLevelConfig& cfg) {
    if (cfg.ways == 0 || cfg.ways > kMaxWays) {
      throw std::invalid_argument("CacheLevelConfig: ways must be in 1..64, got " +
                                  std::to_string(cfg.ways));
    }
    if (std::uint64_t{cfg.size_kb} * 1024 < std::uint64_t{kLineBytes} * cfg.ways) {
      throw std::invalid_argument("CacheLevelConfig: size_kb=" + std::to_string(cfg.size_kb) +
                                  " holds no set of " + std::to_string(cfg.ways) +
                                  " 64-byte lines");
    }
    return cfg;
  }

  /// Sum of a chunk's bytes, each at most 64 (one nonzero lane per set):
  /// no byte of the two halves' sum carries, so the multiply gathers the
  /// total into the top byte, whatever the byte order.
  static std::uint32_t byte_sum(const RankChunk& c) {
    std::uint64_t half[2];
    std::memcpy(half, &c, sizeof(c));
    return static_cast<std::uint32_t>(((half[0] + half[1]) * 0x0101010101010101ULL) >> 56);
  }

  CacheLevelConfig cfg_;
  std::uint64_t sets_;
  std::uint32_t set_shift_;  ///< log2(sets_) when sets_ is a power of two, else 0
  std::uint32_t chunks_;     ///< rank chunks per set: ceil(ways / 16)
  /// sets_ × ways tags.
  std::vector<std::uint64_t> tags_;
  /// sets_ × chunks_ rank chunks.
  std::vector<RankChunk> ranks_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct CacheHierarchyConfig {
  CacheLevelConfig l1d{.size_kb = 32, .ways = 8, .latency = 4};
  CacheLevelConfig l2{.size_kb = 256, .ways = 4, .latency = 14};
  CacheLevelConfig llc{.size_kb = 4096, .ways = 16, .latency = 42};
  std::uint32_t memory_latency = 220;
};

/// Hit/miss counters of all three levels — the cycle-level simulator's
/// cache-behaviour fingerprint. They count every probe of a level, prefetch
/// fills included: a streaming access probes L1 twice (the next line, then
/// its own), and a prefetch that misses L1 probes L2 and the LLC. Surfaced
/// in OooResult so equivalence checks (and the CI compare gate) can assert
/// the cache simulation itself is bit-identical across core variants, not
/// just the IPC it produces.
struct CacheHierarchyCounters {
  std::uint64_t l1d_hits = 0, l1d_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t llc_hits = 0, llc_misses = 0;

  friend bool operator==(const CacheHierarchyCounters&,
                         const CacheHierarchyCounters&) = default;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const CacheHierarchyConfig& cfg = {})
      : cfg_(cfg), l1d_(cfg.l1d), l2_(cfg.l2), llc_(cfg.llc) {}

  /// Total load-to-use latency for `addr`, filling on the way. Streaming
  /// (unit-stride) accesses train the next-line prefetcher, which hides the
  /// fill latency for the following line — as hardware stream prefetchers
  /// do.
  std::uint32_t load_latency(std::uint64_t addr, bool streaming = false) {
    if (streaming) prefetch(addr + CacheLevel::kLineBytes);
    std::uint32_t lat = l1d_.latency();
    if (l1d_.access(addr)) return lat;
    lat += l2_.latency();
    if (l2_.access(addr)) return lat;
    lat += llc_.latency();
    if (llc_.access(addr)) return lat;
    return lat + cfg_.memory_latency;
  }

  /// Prefetch fill: brings the line into all levels without charging the
  /// demand access (latency is overlapped by the prefetch distance).
  void prefetch(std::uint64_t addr) {
    if (!l1d_.access(addr)) {
      l2_.access(addr);
      llc_.access(addr);
    }
  }

  [[nodiscard]] const CacheLevel& l1d() const noexcept { return l1d_; }
  [[nodiscard]] const CacheLevel& l2() const noexcept { return l2_; }
  [[nodiscard]] const CacheLevel& llc() const noexcept { return llc_; }

  [[nodiscard]] CacheHierarchyCounters counters() const noexcept {
    return {.l1d_hits = l1d_.hits(),
            .l1d_misses = l1d_.misses(),
            .l2_hits = l2_.hits(),
            .l2_misses = l2_.misses(),
            .llc_hits = llc_.hits(),
            .llc_misses = llc_.misses()};
  }

 private:
  CacheHierarchyConfig cfg_;
  CacheLevel l1d_;
  CacheLevel l2_;
  CacheLevel llc_;
};

}  // namespace stbpu::sim
