// Remap memo-cache: hits must be bit-identical to direct Remapper calls,
// and a ψ re-key or context change must never let a stale value escape —
// entries are ψ-tagged and the cache watches STManager mutations, so
// invalidation is observable through both the stats and the values.
#include "core/remap_cache.h"

#include <gtest/gtest.h>

#include "core/remap.h"
#include "core/secret_token.h"
#include "core/stbpu_mapping.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

const bpu::ExecContext kUser{.pid = 7, .hart = 0, .kernel = false};
const bpu::ExecContext kOther{.pid = 9, .hart = 1, .kernel = false};
const bpu::ExecContext kKernel{.pid = 7, .hart = 0, .kernel = true};

class RemapCacheTest : public ::testing::Test {
 protected:
  STManager stm_{0xFEED};
  CachedStbpuMapping cache_{&stm_};
};

TEST_F(RemapCacheTest, HitsAreBitIdenticalToDirectRemapperCalls) {
  util::Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const std::uint64_t ghr = rng();
    const std::uint64_t fold = rng() & ((std::uint64_t{1} << 56) - 1);
    const unsigned table = static_cast<unsigned>(rng() & 7);
    const std::uint32_t psi = stm_.token(kUser).psi;

    // First call fills, second call hits; both must equal the direct call.
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(psi, ip));
      EXPECT_EQ(cache_.btb_mode2_tag(ghr, kUser), Remapper::r2(psi, ghr));
      EXPECT_EQ(cache_.pht_index_1level(ip, kUser), Remapper::r3(psi, ip));
      EXPECT_EQ(cache_.pht_index_2level(ip, ghr, kUser), Remapper::r4(psi, ip, ghr));
      EXPECT_EQ(cache_.tage_index(ip, fold, table, 10, kUser),
                Remapper::rt_index(psi, ip, fold, table, 10));
      EXPECT_EQ(cache_.tage_tag(ip, fold, table, 8, kUser),
                Remapper::rt_tag(psi, ip, fold, table, 8));
      EXPECT_EQ(cache_.perceptron_row(ip, 10, kUser), Remapper::rp(psi, ip, 10));
    }
  }
  EXPECT_GT(cache_.stats().hits, 0u);
}

TEST_F(RemapCacheTest, RepeatLookupsHit) {
  const std::uint64_t ip = 0x1234'5678'9ABCULL;
  (void)cache_.btb_mode1(ip, kUser);  // fill
  const auto misses_after_fill = cache_.stats().misses;
  for (int i = 0; i < 100; ++i) (void)cache_.btb_mode1(ip, kUser);
  EXPECT_EQ(cache_.stats().misses, misses_after_fill) << "repeat lookups must hit";
  EXPECT_GE(cache_.stats().hits, 100u);
}

TEST_F(RemapCacheTest, PsiRekeyInvalidatesEveryCachedEntry) {
  const std::uint64_t ip = 0xA5A5'0000'1111ULL;
  const std::uint32_t psi_before = stm_.token(kUser).psi;
  const auto before = cache_.btb_mode1(ip, kUser);
  EXPECT_EQ(before, Remapper::r1(psi_before, ip));

  stm_.rerandomize(kUser);
  const auto inv_before = cache_.stats().invalidations;

  // The next lookup observes the mutation, bumps the generation (emptying
  // every entry) and recomputes under the fresh ψ.
  const std::uint32_t psi_after = stm_.token(kUser).psi;
  ASSERT_NE(psi_before, psi_after);
  const auto misses_before = cache_.stats().misses;
  const auto after = cache_.btb_mode1(ip, kUser);
  EXPECT_EQ(after, Remapper::r1(psi_after, ip));
  EXPECT_NE(after, before) << "fresh psi must remap the branch";
  EXPECT_GT(cache_.stats().invalidations, inv_before);
  EXPECT_GT(cache_.stats().misses, misses_before) << "old entry must not be served";
}

TEST_F(RemapCacheTest, ExplicitTokenWriteInvalidates) {
  const std::uint64_t ip = 0xBEEF'0000'2222ULL;
  (void)cache_.btb_mode1(ip, kUser);
  stm_.set_token(kUser, SecretToken{.psi = 0x1234'5678, .phi = 0x9ABC'DEF0});
  EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(0x1234'5678, ip));
  EXPECT_EQ(cache_.encode_target(0xCAFE, kUser), (0xCAFEULL ^ 0x9ABC'DEF0ULL));
}

TEST_F(RemapCacheTest, ContextSwitchNeverServesStaleValues) {
  const std::uint64_t ip = 0x0F0F'3333'4444ULL;
  // Interleave three entities (user, other-hart user, kernel) at the same
  // branch address: each must always see its own ψ's mapping.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(stm_.token(kUser).psi, ip));
    EXPECT_EQ(cache_.btb_mode1(ip, kOther), Remapper::r1(stm_.token(kOther).psi, ip));
    EXPECT_EQ(cache_.btb_mode1(ip, kKernel), Remapper::r1(stm_.token(kKernel).psi, ip));
  }
  // Distinct ψ per entity ⇒ distinct mappings (with overwhelming probability
  // for these seeds) — proves no cross-entity reuse happened.
  EXPECT_NE(cache_.btb_mode1(ip, kUser), cache_.btb_mode1(ip, kKernel));
}

TEST_F(RemapCacheTest, InvalidateAllEmptiesTheCache) {
  const std::uint64_t ip = 0x7777'8888'9999ULL;
  (void)cache_.pht_index_1level(ip, kUser);
  (void)cache_.pht_index_1level(ip, kUser);  // hit
  const auto hits = cache_.stats().hits;
  ASSERT_GT(hits, 0u);

  cache_.invalidate_all();
  const auto misses = cache_.stats().misses;
  (void)cache_.pht_index_1level(ip, kUser);
  EXPECT_GT(cache_.stats().misses, misses) << "entry must be gone after invalidate_all";
  // Value still bit-identical after refill.
  EXPECT_EQ(cache_.pht_index_1level(ip, kUser),
            Remapper::r3(stm_.token(kUser).psi, ip));
}

TEST_F(RemapCacheTest, HartSwitchDoesNotChangeValues) {
  // ψ is per-entity, not per-hart: the same pid on the other hart maps
  // identically (SMT interleaving needs no flushes for correctness).
  const std::uint64_t ip = 0x1111'2222'3333ULL;
  bpu::ExecContext hart0 = kUser;
  bpu::ExecContext hart1 = kUser;
  hart1.hart = 1;
  EXPECT_EQ(cache_.btb_mode1(ip, hart0), cache_.btb_mode1(ip, hart1));
}

TEST_F(RemapCacheTest, GenerationWraparoundNeverServesStaleValues) {
  // The generation tag is a u32 and 0 is the never-filled sentinel. Park
  // the counter one step below the wrap: the next invalidate_all must
  // hard-clear instead of wrapping onto 0 — otherwise every live entry
  // (stamped 0xFFFFFFFF) would read as filled-at-sentinel and, worse, a
  // second wrap could collide with surviving stamps from 4G bumps ago.
  cache_.debug_set_generation(0xFFFF'FFFFu);
  const std::uint64_t ip = 0x5151'6262'7373ULL;
  const std::uint32_t psi_before = stm_.token(kUser).psi;
  EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(psi_before, ip));  // fill

  stm_.set_token(kUser, SecretToken{.psi = 0x0BAD'F00D, .phi = 0});
  const auto misses = cache_.stats().misses;
  // The mutation-triggered invalidate_all wraps the counter: generation
  // restarts at 1 and the filled entry must be gone, not resurrected.
  EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(0x0BAD'F00D, ip));
  EXPECT_EQ(cache_.debug_generation(), 1u);
  EXPECT_GT(cache_.stats().misses, misses) << "wrapped entry must not be served";

  // And the sentinel discipline holds after the wrap: refill + hit works.
  const auto hits = cache_.stats().hits;
  EXPECT_EQ(cache_.btb_mode1(ip, kUser), Remapper::r1(0x0BAD'F00D, ip));
  EXPECT_GT(cache_.stats().hits, hits);
}

TEST_F(RemapCacheTest, MatchesUncachedStbpuMappingLogic) {
  // The cache and the uncached logic see the same STManager: every function
  // must agree on every input, including the φ codec.
  STManager stm2{0xFEED};
  StbpuMappingLogic plain{&stm2};
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const std::uint64_t ghr = rng();
    EXPECT_EQ(cache_.btb_mode1(ip, kUser), plain.btb_mode1(ip, kUser));
    EXPECT_EQ(cache_.pht_index_2level(ip, ghr, kUser),
              plain.pht_index_2level(ip, ghr, kUser));
    EXPECT_EQ(cache_.encode_target(ip, kUser), plain.encode_target(ip, kUser));
    EXPECT_EQ(cache_.decode_target(ip, ghr, kUser), plain.decode_target(ip, ghr, kUser));
  }
}

}  // namespace
}  // namespace stbpu::core
