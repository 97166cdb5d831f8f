// Remap memo-cache: the keyed core's hits must be bit-identical to direct
// Remapper calls plus the arm's tag policy and target codec, for both
// instantiations (STBPU and CIBPU), and a ψ re-key or context change must
// never let a stale value escape — entries are ψ-tagged and the cache
// watches STManager mutations, so invalidation is observable through both
// the stats and the values.
#include "core/remap_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/cibpu_mapping.h"
#include "core/remap.h"
#include "core/secret_token.h"
#include "core/stbpu_mapping.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

const bpu::ExecContext kUser{.pid = 7, .hart = 0, .kernel = false};
const bpu::ExecContext kOther{.pid = 9, .hart = 1, .kernel = false};
const bpu::ExecContext kKernel{.pid = 7, .hart = 0, .kernel = true};

/// One instantiation of the keyed core over its own token manager, plus the
/// reference its lookups must equal: the direct Remapper call with the
/// arm's tag bits, and the arm's codec.
template <class Policy>
struct Arm {
  STManager stm{0xFEED};
  CachedKeyedMapping<Policy> cache{&stm};

  bpu::BtbIndex widen(bpu::BtbIndex idx, const bpu::ExecContext& ctx) const {
    idx.tag |= Policy::tag_domain(ctx);
    return idx;
  }
  bpu::BtbIndex r1(std::uint64_t ip, const bpu::ExecContext& ctx) {
    return widen(Remapper::r1(stm.token(ctx).psi, ip), ctx);
  }
  /// The key the arm's codec XORs payloads with (0: plaintext).
  std::uint64_t codec_key(const bpu::ExecContext& ctx) {
    return Policy::kEncryptTargets ? stm.token(ctx).phi : 0;
  }
};

/// Runs `body` once per instantiation of the keyed core, each on a fresh
/// token manager. The mappings hold their tables inline, hence the heap.
template <class Body>
void for_each_arm(Body&& body) {
  {
    SCOPED_TRACE("STBPU");
    body(*std::make_unique<Arm<StbpuPolicy>>());
  }
  {
    SCOPED_TRACE("CIBPU");
    body(*std::make_unique<Arm<CibpuPolicy>>());
  }
}

/// Every mapping function of `a.cache` at (ip, ghr) under `ctx` equals its
/// direct computation: R1 (widened), R2, R3, R4, Rp, per-table and batched
/// Rt, and the target codec both ways.
template <class A>
void expect_matches_direct(A& a, const bpu::ExecContext& ctx, std::uint64_t ip,
                           std::uint64_t ghr) {
  const std::uint32_t psi = a.stm.token(ctx).psi;
  EXPECT_EQ(a.cache.btb_mode1(ip, ctx), a.r1(ip, ctx));
  EXPECT_EQ(a.cache.btb_mode2_tag(ghr, ctx), Remapper::r2(psi, ghr));
  EXPECT_EQ(a.cache.pht_index_1level(ip, ctx), Remapper::r3(psi, ip));
  EXPECT_EQ(a.cache.pht_index_2level(ip, ghr, ctx), Remapper::r4(psi, ip, ghr));
  EXPECT_EQ(a.cache.perceptron_row(ip, 10, ctx), Remapper::rp(psi, ip, 10));

  constexpr unsigned kTables = 7;
  std::uint64_t index_keys[kTables], tag_keys[kTables];
  for (unsigned t = 0; t < kTables; ++t) {
    index_keys[t] = (ghr >> t) & ((std::uint64_t{1} << 56) - 1);
    tag_keys[t] = (ghr * (t + 3)) & ((std::uint64_t{1} << 56) - 1);
  }
  std::uint32_t idx[kTables], tag[kTables], loop_tag = 0;
  a.cache.tage_rt_all(ip, index_keys, tag_keys, kTables, 10, 8, idx, tag, &loop_tag, ctx);
  for (unsigned t = 0; t < kTables; ++t) {
    EXPECT_EQ(idx[t], Remapper::rt_index(psi, ip, index_keys[t], t, 10));
    EXPECT_EQ(tag[t], Remapper::rt_tag(psi, ip, tag_keys[t], t, 8));
    EXPECT_EQ(a.cache.tage_index(ip, index_keys[t], t, 10, ctx), idx[t]);
    EXPECT_EQ(a.cache.tage_tag(ip, tag_keys[t], t, 8, ctx), tag[t]);
  }
  EXPECT_EQ(loop_tag,
            Remapper::rt_tag(psi, ip, 0, bpu::kTageLoopTagTable, bpu::kTageLoopTagBits));

  const std::uint64_t key = a.codec_key(ctx);
  EXPECT_EQ(a.cache.encode_target(ghr, ctx), (ghr & 0xFFFF'FFFFULL) ^ key);
  EXPECT_EQ(a.cache.decode_target(ip, ghr, ctx),
            (ip & 0xFFFF'0000'0000ULL) | ((ghr ^ key) & 0xFFFF'FFFFULL));
}

TEST(RemapCacheTest, HitsAreBitIdenticalToDirectRemapperCalls) {
  for_each_arm([](auto& a) {
    util::Xoshiro256 rng(42);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
      const std::uint64_t ghr = rng();
      // First call fills, second call hits; both must equal the direct call.
      for (int rep = 0; rep < 2; ++rep) expect_matches_direct(a, kUser, ip, ghr);
    }
    EXPECT_GT(a.cache.stats().hits, 0u);
  });
}

TEST(RemapCacheTest, BitIdenticalAcrossEveryTokenMutation) {
  // Each kind of token change (re-key, explicit write, share-group edit,
  // slot retire, a generation wrap) followed by a fill-then-hit pass over
  // three entities: no value may survive from before the change.
  for_each_arm([](auto& a) {
    util::Xoshiro256 rng(5);
    std::uint64_t ips[64], ghrs[64];
    for (unsigned i = 0; i < 64; ++i) {
      ips[i] = rng() & bpu::kVirtualAddressMask;
      ghrs[i] = rng();
    }
    const auto sweep = [&] {
      for (int rep = 0; rep < 2; ++rep) {
        for (const auto& ctx : {kUser, kOther, kKernel}) {
          for (unsigned i = 0; i < 64; ++i) expect_matches_direct(a, ctx, ips[i], ghrs[i]);
        }
      }
    };
    sweep();
    a.stm.rerandomize(kUser);
    sweep();
    a.stm.set_token(kOther, SecretToken{.psi = 0x1234'5678, .phi = 0x9ABC'DEF0});
    sweep();
    a.stm.share(kOther.pid, kUser.pid);
    sweep();
    a.stm.retire(kUser);
    sweep();
    a.cache.debug_set_generation(0xFFFF'FFFFu);
    a.stm.rerandomize(kKernel);
    sweep();
    EXPECT_EQ(a.cache.debug_generation(), 1u) << "the re-key must have wrapped the counter";
    EXPECT_GT(a.cache.stats().hits, 0u);
  });
}

TEST(RemapCacheTest, RepeatLookupsHit) {
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0x1234'5678'9ABCULL;
    (void)a.cache.btb_mode1(ip, kUser);  // fill
    const auto misses_after_fill = a.cache.stats().misses;
    for (int i = 0; i < 100; ++i) (void)a.cache.btb_mode1(ip, kUser);
    EXPECT_EQ(a.cache.stats().misses, misses_after_fill) << "repeat lookups must hit";
    EXPECT_GE(a.cache.stats().hits, 100u);
  });
}

TEST(RemapCacheTest, PsiRekeyInvalidatesEveryCachedEntry) {
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0xA5A5'0000'1111ULL;
    const std::uint32_t psi_before = a.stm.token(kUser).psi;
    const auto before = a.cache.btb_mode1(ip, kUser);
    EXPECT_EQ(before, a.widen(Remapper::r1(psi_before, ip), kUser));

    a.stm.rerandomize(kUser);
    const auto inv_before = a.cache.stats().invalidations;

    // The next lookup observes the mutation, bumps the generation (emptying
    // every entry) and recomputes under the fresh ψ.
    const std::uint32_t psi_after = a.stm.token(kUser).psi;
    ASSERT_NE(psi_before, psi_after);
    const auto misses_before = a.cache.stats().misses;
    const auto after = a.cache.btb_mode1(ip, kUser);
    EXPECT_EQ(after, a.widen(Remapper::r1(psi_after, ip), kUser));
    EXPECT_NE(after, before) << "fresh psi must remap the branch";
    EXPECT_GT(a.cache.stats().invalidations, inv_before);
    EXPECT_GT(a.cache.stats().misses, misses_before) << "old entry must not be served";
  });
}

TEST(RemapCacheTest, ExplicitTokenWriteInvalidates) {
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0xBEEF'0000'2222ULL;
    (void)a.cache.btb_mode1(ip, kUser);
    a.stm.set_token(kUser, SecretToken{.psi = 0x1234'5678, .phi = 0x9ABC'DEF0});
    EXPECT_EQ(a.cache.btb_mode1(ip, kUser), a.widen(Remapper::r1(0x1234'5678, ip), kUser));
    EXPECT_EQ(a.cache.encode_target(0xCAFE, kUser), 0xCAFEULL ^ a.codec_key(kUser));
  });
}

TEST(RemapCacheTest, ContextSwitchNeverServesStaleValues) {
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0x0F0F'3333'4444ULL;
    // Interleave three entities (user, other-hart user, kernel) at the same
    // branch address: each must always see its own ψ's mapping.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(a.cache.btb_mode1(ip, kUser), a.r1(ip, kUser));
      EXPECT_EQ(a.cache.btb_mode1(ip, kOther), a.r1(ip, kOther));
      EXPECT_EQ(a.cache.btb_mode1(ip, kKernel), a.r1(ip, kKernel));
    }
    // Distinct ψ per entity ⇒ distinct mappings (with overwhelming
    // probability for these seeds) — proves no cross-entity reuse happened.
    EXPECT_NE(a.cache.btb_mode1(ip, kUser), a.cache.btb_mode1(ip, kKernel));
  });
}

TEST(RemapCacheTest, InvalidateAllEmptiesTheCache) {
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0x7777'8888'9999ULL;
    (void)a.cache.pht_index_1level(ip, kUser);
    (void)a.cache.pht_index_1level(ip, kUser);  // hit
    ASSERT_GT(a.cache.stats().hits, 0u);

    a.cache.invalidate_all();
    const auto misses = a.cache.stats().misses;
    (void)a.cache.pht_index_1level(ip, kUser);
    EXPECT_GT(a.cache.stats().misses, misses) << "entry must be gone after invalidate_all";
    // Value still bit-identical after refill.
    EXPECT_EQ(a.cache.pht_index_1level(ip, kUser), Remapper::r3(a.stm.token(kUser).psi, ip));
  });
}

TEST(RemapCacheTest, HartSwitchDoesNotChangeValues) {
  // ψ is per-entity, not per-hart: the same pid on the other hart maps
  // identically (SMT interleaving needs no flushes for correctness).
  for_each_arm([](auto& a) {
    const std::uint64_t ip = 0x1111'2222'3333ULL;
    bpu::ExecContext hart0 = kUser;
    bpu::ExecContext hart1 = kUser;
    hart1.hart = 1;
    EXPECT_EQ(a.cache.btb_mode1(ip, hart0), a.cache.btb_mode1(ip, hart1));
  });
}

TEST(RemapCacheTest, GenerationWraparoundNeverServesStaleValues) {
  // The generation tag is a u32 and 0 is the never-filled sentinel. Park
  // the counter one step below the wrap: the next invalidate_all must
  // hard-clear instead of wrapping onto 0 — otherwise every live entry
  // (stamped 0xFFFFFFFF) would read as filled-at-sentinel and, worse, a
  // second wrap could collide with surviving stamps from 4G bumps ago.
  for_each_arm([](auto& a) {
    a.cache.debug_set_generation(0xFFFF'FFFFu);
    const std::uint64_t ip = 0x5151'6262'7373ULL;
    EXPECT_EQ(a.cache.btb_mode1(ip, kUser), a.r1(ip, kUser));  // fill

    a.stm.set_token(kUser, SecretToken{.psi = 0x0BAD'F00D, .phi = 0});
    const auto misses = a.cache.stats().misses;
    // The mutation-triggered invalidate_all wraps the counter: generation
    // restarts at 1 and the filled entry must be gone, not resurrected.
    const auto expected = a.widen(Remapper::r1(0x0BAD'F00D, ip), kUser);
    EXPECT_EQ(a.cache.btb_mode1(ip, kUser), expected);
    EXPECT_EQ(a.cache.debug_generation(), 1u);
    EXPECT_GT(a.cache.stats().misses, misses) << "wrapped entry must not be served";

    // And the sentinel discipline holds after the wrap: refill + hit works.
    const auto hits = a.cache.stats().hits;
    EXPECT_EQ(a.cache.btb_mode1(ip, kUser), expected);
    EXPECT_GT(a.cache.stats().hits, hits);
  });
}

TEST(RemapCacheTest, MatchesUncachedStbpuMappingLogic) {
  // The STBPU instantiation and the uncached logic see equal STManagers:
  // every function must agree on every input, including the φ codec.
  const auto owner = std::make_unique<Arm<StbpuPolicy>>();
  Arm<StbpuPolicy>& a = *owner;
  STManager stm2{0xFEED};
  StbpuMappingLogic plain{&stm2};
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const std::uint64_t ghr = rng();
    EXPECT_EQ(a.cache.btb_mode1(ip, kUser), plain.btb_mode1(ip, kUser));
    EXPECT_EQ(a.cache.pht_index_2level(ip, ghr, kUser), plain.pht_index_2level(ip, ghr, kUser));
    EXPECT_EQ(a.cache.encode_target(ip, kUser), plain.encode_target(ip, kUser));
    EXPECT_EQ(a.cache.decode_target(ip, ghr, kUser), plain.decode_target(ip, ghr, kUser));
  }
}

}  // namespace
}  // namespace stbpu::core
