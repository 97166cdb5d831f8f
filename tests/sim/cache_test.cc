// Cache-metadata equivalence: sim::CacheLevel keeps one tag array and
// per-set LRU ranks as signed byte lanes in 16-byte chunks; the original
// layout kept two parallel tag/global-clock arrays. The replacement
// decisions must be BIT-IDENTICAL — same hit/miss outcome on every access,
// same victim on every fill, same counters — including across flushes, on
// adversarial (mcf-like miss-heavy) patterns and on associativities that
// fill a rank chunk only partly or span several. The reference below is
// the original implementation, verbatim.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/cache.h"
#include "util/rng.h"

namespace stbpu {
namespace {

/// The previous CacheLevel implementation (separate tag array + global
/// monotonic LRU clock), kept as the executable specification.
class ReferenceCacheLevel {
 public:
  static constexpr std::uint32_t kLineBytes = 64;

  explicit ReferenceCacheLevel(const sim::CacheLevelConfig& cfg)
      : cfg_(cfg),
        sets_(cfg.size_kb * 1024 / kLineBytes / cfg.ways),
        tags_(std::size_t{sets_} * cfg.ways, kInvalid),
        lru_(std::size_t{sets_} * cfg.ways, 0) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / kLineBytes;
    const std::uint32_t set = static_cast<std::uint32_t>(line % sets_);
    const std::uint64_t tag = line / sets_;
    const std::size_t base = std::size_t{set} * cfg_.ways;
    std::size_t victim = base;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t w = 0; w < cfg_.ways; ++w) {
      if (tags_[base + w] == tag) {
        lru_[base + w] = ++clock_;
        ++hits_;
        return true;
      }
      if (lru_[base + w] < oldest) {
        oldest = lru_[base + w];
        victim = base + w;
      }
    }
    tags_[victim] = tag;
    lru_[victim] = ++clock_;
    ++misses_;
    return false;
  }

  void flush() { std::fill(tags_.begin(), tags_.end(), kInvalid); }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  sim::CacheLevelConfig cfg_;
  std::uint32_t sets_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// mcf-like access stream: a pointer-chasing working set far larger than
/// the cache, a hot region absorbing most accesses, and a conflict-heavy
/// stride component that hammers a few sets — the miss-heavy shape the
/// cycle-level profile blames for ~31% of step() time.
std::vector<std::uint64_t> adversarial_addresses(std::uint64_t seed, std::size_t n,
                                                 std::uint64_t working_set) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  const std::uint64_t heap = 0x0000'7000'0000ULL;
  const std::uint64_t hot = std::min<std::uint64_t>(working_set, 256 * 1024);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < 0.45) {
      out.push_back(heap + (rng.below(hot) & ~std::uint64_t{7}));
    } else if (u < 0.85) {
      out.push_back(heap + (rng.below(working_set) & ~std::uint64_t{7}));
    } else {
      // Same-set conflict stride: increments of sets × line size.
      out.push_back(heap + (rng.below(64) * 64 * 512) + (rng.below(8) * 4096 * 512));
    }
  }
  return out;
}

void expect_level_equivalent(const sim::CacheLevelConfig& cfg, std::uint64_t seed,
                             bool with_flush) {
  sim::CacheLevel level(cfg);
  ReferenceCacheLevel ref(cfg);
  const auto addrs = adversarial_addresses(seed, 60'000, 8ULL * 1024 * 1024);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (with_flush && i == addrs.size() / 2) {
      // Flush invalidates tags but keeps recency, so the post-flush victim
      // order must replay the pre-flush LRU order in both layouts.
      level.flush();
      ref.flush();
    }
    ASSERT_EQ(level.access(addrs[i]), ref.access(addrs[i]))
        << "access " << i << " size_kb=" << cfg.size_kb << " ways=" << cfg.ways;
  }
  EXPECT_EQ(level.hits(), ref.hits());
  EXPECT_EQ(level.misses(), ref.misses());
}

TEST(CacheInterleaved, TableIvGeometriesBitIdentical) {
  // The three Table IV levels, exactly as the OoO core instantiates them.
  expect_level_equivalent({.size_kb = 32, .ways = 8, .latency = 4}, 1, false);
  expect_level_equivalent({.size_kb = 256, .ways = 4, .latency = 14}, 2, false);
  expect_level_equivalent({.size_kb = 4096, .ways = 16, .latency = 42}, 3, false);
}

TEST(CacheInterleaved, FlushPreservesRecencyOrder) {
  expect_level_equivalent({.size_kb = 32, .ways = 8, .latency = 4}, 4, true);
  expect_level_equivalent({.size_kb = 4096, .ways = 16, .latency = 42}, 5, true);
}

TEST(CacheInterleaved, OddGeometriesBitIdentical) {
  // Non-power-of-two set counts (the divide fallback) and degenerate
  // associativities: 1-way direct-mapped, 3-way, single-set fully
  // associative.
  expect_level_equivalent({.size_kb = 48, .ways = 8, .latency = 4}, 6, true);
  expect_level_equivalent({.size_kb = 16, .ways = 1, .latency = 4}, 7, false);
  expect_level_equivalent({.size_kb = 24, .ways = 3, .latency = 4}, 8, true);
  expect_level_equivalent({.size_kb = 4, .ways = 64 / 1, .latency = 4}, 9, false);
}

TEST(CacheInterleaved, LaneBoundaryGeometriesBitIdentical) {
  // Associativities around the 16-lane rank chunk: partly filled chunks
  // (12, 17, 20, 33 ways), several chunks (17 through 48 ways) and whole
  // chunks (48), on power-of-two and non-power-of-two set counts.
  for (const bool with_flush : {false, true}) {
    expect_level_equivalent({.size_kb = 48, .ways = 12, .latency = 4}, 10, with_flush);
    expect_level_equivalent({.size_kb = 34, .ways = 17, .latency = 4}, 11, with_flush);
    expect_level_equivalent({.size_kb = 30, .ways = 20, .latency = 4}, 12, with_flush);
    expect_level_equivalent({.size_kb = 66, .ways = 33, .latency = 4}, 13, with_flush);
    expect_level_equivalent({.size_kb = 24, .ways = 48, .latency = 4}, 14, with_flush);
  }
}

TEST(CacheInterleaved, RejectsZeroWays) {
  EXPECT_THROW(sim::CacheLevel({.size_kb = 32, .ways = 0, .latency = 4}),
               std::invalid_argument);
}

TEST(CacheInterleaved, RejectsMoreThan64Ways) {
  EXPECT_THROW(sim::CacheLevel({.size_kb = 32, .ways = 65, .latency = 4}),
               std::invalid_argument);
  EXPECT_NO_THROW(sim::CacheLevel({.size_kb = 4, .ways = 64, .latency = 4}));
}

TEST(CacheInterleaved, RejectsGeometryWithoutASet) {
  // 1 KB holds 16 lines: fewer than one 32-way set.
  EXPECT_THROW(sim::CacheLevel({.size_kb = 1, .ways = 32, .latency = 4}),
               std::invalid_argument);
  EXPECT_THROW(sim::CacheLevel({.size_kb = 0, .ways = 1, .latency = 4}),
               std::invalid_argument);
  EXPECT_NO_THROW(sim::CacheLevel({.size_kb = 1, .ways = 16, .latency = 4}));
}

TEST(CacheInterleaved, HierarchyLatenciesAndCountersUnchanged) {
  // Whole-hierarchy check: the load-to-use latency sequence (what the OoO
  // timing consumes) and every level's hit/miss counters must match a
  // hierarchy built from reference levels.
  sim::CacheHierarchyConfig cfg;
  sim::CacheHierarchy hier(cfg);
  ReferenceCacheLevel r1(cfg.l1d), r2(cfg.l2), r3(cfg.llc);
  const auto ref_latency = [&](std::uint64_t addr, bool streaming) -> std::uint32_t {
    if (streaming) {  // mirror CacheHierarchy::prefetch
      const std::uint64_t next = addr + 64;
      if (!r1.access(next)) {
        r2.access(next);
        r3.access(next);
      }
    }
    std::uint32_t lat = cfg.l1d.latency;
    if (r1.access(addr)) return lat;
    lat += cfg.l2.latency;
    if (r2.access(addr)) return lat;
    lat += cfg.llc.latency;
    if (r3.access(addr)) return lat;
    return lat + cfg.memory_latency;
  };

  util::Xoshiro256 rng(42);
  const auto addrs = adversarial_addresses(99, 40'000, 16ULL * 1024 * 1024);
  for (const std::uint64_t addr : addrs) {
    const bool streaming = rng.chance(0.2);
    ASSERT_EQ(hier.load_latency(addr, streaming), ref_latency(addr, streaming));
  }
  const auto counters = hier.counters();
  EXPECT_EQ(counters.l1d_hits, r1.hits());
  EXPECT_EQ(counters.l1d_misses, r1.misses());
  EXPECT_EQ(counters.l2_hits, r2.hits());
  EXPECT_EQ(counters.l2_misses, r2.misses());
  EXPECT_EQ(counters.llc_hits, r3.hits());
  EXPECT_EQ(counters.llc_misses, r3.misses());
  EXPECT_GT(counters.l1d_misses, 0u);  // the pattern actually misses
}

TEST(Cache, CountersIncludePrefetchProbes) {
  // The counters count every probe of a level, not only demand accesses. A
  // streaming access first probes the next line for the prefetcher, so it
  // adds two L1 probes where a plain access adds one. Every L1 miss probes
  // L2, prefetch or demand alike; a demand access probes the LLC on an L2
  // miss, a prefetch on every L1 miss.
  sim::CacheHierarchy hier;
  constexpr std::uint64_t kBase = 0x7000'0000ULL;
  constexpr std::uint64_t kLine = sim::CacheLevel::kLineBytes;

  // Cold streaming access: the prefetch of the next line and the demand
  // access both miss every level.
  hier.load_latency(kBase, /*streaming=*/true);
  auto c = hier.counters();
  EXPECT_EQ(c.l1d_misses, 2u);
  EXPECT_EQ(c.l1d_hits, 0u);
  EXPECT_EQ(c.l2_misses, 2u);
  EXPECT_EQ(c.llc_misses, 2u);
  // The prefetched line is then a demand hit.
  EXPECT_EQ(hier.load_latency(kBase + kLine), sim::CacheHierarchyConfig{}.l1d.latency);
  c = hier.counters();
  EXPECT_EQ(c.l1d_hits, 1u);

  // A mix of plain and streaming accesses: L1 probes = accesses + streaming.
  util::Xoshiro256 rng(7);
  std::uint64_t accesses = 2, streaming = 1;
  for (int i = 0; i < 5'000; ++i) {
    const bool s = rng.chance(0.1);
    hier.load_latency(kBase + (rng.below(1u << 24) & ~std::uint64_t{7}), s);
    ++accesses;
    streaming += s ? 1 : 0;
  }
  c = hier.counters();
  EXPECT_EQ(c.l1d_hits + c.l1d_misses, accesses + streaming);
  EXPECT_EQ(c.l2_hits + c.l2_misses, c.l1d_misses);
  EXPECT_GT(c.llc_hits + c.llc_misses, c.l2_misses);
}

}  // namespace
}  // namespace stbpu
