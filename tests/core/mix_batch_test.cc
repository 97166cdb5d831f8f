// Bit-identity properties of the batched mix kernels: every rendering
// (T-table lanes, AVX-512 shuffles) and every lane count of
// detail::mix_batch must reproduce scalar detail::mix exactly, over random and adversarial inputs and across ψ re-keys —
// that identity is what lets the remap cache fill entries from batched
// kernels without the equivalence tests ever noticing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/remap.h"
#include "tage/tage.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

std::vector<std::uint64_t> adversarial_words() {
  return {0x0ULL,
          ~0x0ULL,
          0x0101010101010101ULL,
          0x8080808080808080ULL,
          0xAAAAAAAAAAAAAAAAULL,
          0x5555555555555555ULL,
          0x00000000FFFFFFFFULL,
          0xFFFFFFFF00000000ULL,
          0x0000FFFF0000FFFFULL,
          0xF0F0F0F0F0F0F0F0ULL,
          0x0123456789ABCDEFULL,
          0xFEDCBA9876543210ULL};
}

template <unsigned N>
void expect_lanes_match_scalar(std::uint32_t psi, std::uint64_t tweak,
                               const std::uint64_t* lo, const std::uint64_t* hi) {
  std::uint64_t out[N];
  detail::mix_batch<N>(lo, hi, psi, tweak, out);
  for (unsigned i = 0; i < N; ++i) {
    EXPECT_EQ(out[i], detail::mix(lo[i], hi[i], psi, tweak))
        << "lane " << i << " of N=" << N;
  }
  // The production dispatch entry point (AVX-512 nibble-shuffle kernel
  // when the host supports it, T-table lanes otherwise) must match too.
  std::uint64_t dout[N];
  detail::mix_batch_dispatch<N>(lo, hi, psi, tweak, dout);
  for (unsigned i = 0; i < N; ++i) {
    EXPECT_EQ(dout[i], detail::mix(lo[i], hi[i], psi, tweak))
        << "dispatch lane " << i << " of N=" << N
        << " avx512=" << detail::mix_avx512_available();
  }
}

template <unsigned N>
void run_property(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::uint64_t lo[N], hi[N];

  // Random inputs under random keys.
  for (int round = 0; round < 2000; ++round) {
    const std::uint32_t psi = static_cast<std::uint32_t>(rng());
    const std::uint64_t tweak = rng();
    for (unsigned i = 0; i < N; ++i) {
      lo[i] = rng();
      hi[i] = rng();
    }
    expect_lanes_match_scalar<N>(psi, tweak, lo, hi);
  }

  // Adversarial lane contents: all-zeros, all-ones, and every adversarial
  // word replicated across lanes, under the real per-function tweaks.
  const auto words = adversarial_words();
  for (const std::uint64_t w : words) {
    for (unsigned i = 0; i < N; ++i) {
      lo[i] = w;
      hi[i] = words[(i + 1) % words.size()];
    }
    for (const std::uint64_t tweak :
         {Remapper::kTweakR1, Remapper::kTweakR4, Remapper::kTweakRp}) {
      expect_lanes_match_scalar<N>(0u, tweak, lo, hi);
      expect_lanes_match_scalar<N>(~0u, tweak, lo, hi);
    }
  }

  // ψ re-key: the same lane inputs under two different keys must track the
  // scalar function under each key independently (no key state leaks
  // between invocations of the kernel).
  for (unsigned i = 0; i < N; ++i) {
    lo[i] = rng();
    hi[i] = rng();
  }
  const std::uint32_t psi_a = static_cast<std::uint32_t>(rng());
  const std::uint32_t psi_b = ~psi_a;
  expect_lanes_match_scalar<N>(psi_a, Remapper::kTweakR4, lo, hi);
  expect_lanes_match_scalar<N>(psi_b, Remapper::kTweakR4, lo, hi);
}

TEST(MixBatch, Lanes1MatchScalar) { run_property<1>(0xA1); }
TEST(MixBatch, Lanes4MatchScalar) { run_property<4>(0xA4); }
TEST(MixBatch, Lanes8MatchScalar) { run_property<8>(0xA8); }
TEST(MixBatch, Lanes12MatchScalar) { run_property<12>(0xAC); }

TEST(MixBatch, RemapperHelpersMatchScalarFunctions) {
  // The from_mix extraction helpers must reproduce the public R functions
  // when fed the function's own mix — the invariant the batch fill path
  // (core/remap_cache.h) rests on.
  util::Xoshiro256 rng(0xBEE5);
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t psi = static_cast<std::uint32_t>(rng());
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const std::uint64_t ghr = rng();

    const std::uint64_t m1 = detail::mix(ip, 0, psi, Remapper::kTweakR1);
    EXPECT_EQ(Remapper::r1_from_mix(m1), Remapper::r1(psi, ip));

    const std::uint64_t m4 =
        detail::mix(ip, util::bits(ghr, 0, Remapper::kGhrBitsUsed), psi,
                    Remapper::kTweakR4);
    EXPECT_EQ(Remapper::pht_from_mix(m4), Remapper::r4(psi, ip, ghr));

    const std::uint64_t mp = detail::mix(ip, 0, psi, Remapper::kTweakRp);
    EXPECT_EQ(Remapper::rp_from_mix(mp, 10), Remapper::rp(psi, ip, 10));
  }
}

/// Remapper::rt_all must equal the per-table Rt functions lane for lane —
/// every table's index and tag plus the loop tag lane — for `cfg`'s
/// geometry, through the kernel UseAvx512 selects.
template <bool UseAvx512>
void expect_rt_all_matches_per_table(const tage::TageConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const unsigned n = cfg.num_tables;
  std::vector<std::uint64_t> index_keys(n), tag_keys(n);
  std::vector<std::uint32_t> idx(n), tag(n);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t psi = static_cast<std::uint32_t>(rng());
    const std::uint64_t ip = rng();  // high bits must be masked away
    for (unsigned t = 0; t < n; ++t) {
      // Real folded keys occupy bits 0..55; mix in adversarial words too.
      index_keys[t] = i % 7 == 0 ? adversarial_words()[t % 12] & util::mask(56)
                                 : rng() & util::mask(56);
      tag_keys[t] = tage::TagePredictorT<bpu::BaselineMappingLogic>::tag_key(index_keys[t]);
    }
    std::uint32_t loop_tag = 0;
    Remapper::rt_all<UseAvx512>(psi, ip, index_keys.data(), tag_keys.data(), n,
                                cfg.index_bits, cfg.tag_bits, idx.data(), tag.data(),
                                &loop_tag);
    for (unsigned t = 0; t < n; ++t) {
      ASSERT_EQ(idx[t], Remapper::rt_index(psi, ip, index_keys[t], t, cfg.index_bits))
          << cfg.name << " n=" << n << " index lane " << t;
      ASSERT_EQ(tag[t], Remapper::rt_tag(psi, ip, tag_keys[t], t, cfg.tag_bits))
          << cfg.name << " n=" << n << " tag lane " << t;
    }
    ASSERT_EQ(loop_tag, Remapper::rt_tag(psi, ip, 0, bpu::kTageLoopTagTable,
                                         bpu::kTageLoopTagBits))
        << cfg.name << " n=" << n << " loop tag lane";

    // Without a loop tag the table lanes are unchanged.
    std::vector<std::uint32_t> idx2(n), tag2(n);
    Remapper::rt_all<UseAvx512>(psi, ip, index_keys.data(), tag_keys.data(), n,
                                cfg.index_bits, cfg.tag_bits, idx2.data(), tag2.data(),
                                nullptr);
    ASSERT_EQ(idx2, idx) << cfg.name << " n=" << n;
    ASSERT_EQ(tag2, tag) << cfg.name << " n=" << n;
  }
}

/// Table counts 1-20 (every vector and chunk boundary of both kernels)
/// and the 32-table maximum.
template <bool UseAvx512>
void expect_rt_all_matches_every_table_count() {
  for (unsigned n = 1; n <= 20; ++n) {
    tage::TageConfig cfg = tage::TageConfig::kb64();
    cfg.num_tables = n;
    expect_rt_all_matches_per_table<UseAvx512>(cfg, 0x100 + n);
  }
  tage::TageConfig widest = tage::TageConfig::kb64();
  widest.num_tables = Remapper::kMaxRtTables;
  expect_rt_all_matches_per_table<UseAvx512>(widest, 0x1FF);
}

// The shipped geometries through the portable kernel, and through the
// AVX-512 one where the host runs it (RtAllAvx512KernelMatchesPerTableRt
// reports the skip otherwise).
TEST(MixBatch, RtAllMatchesPerTableRtKb8) {
  expect_rt_all_matches_per_table<false>(tage::TageConfig::kb8(), 0x8C);
  if (detail::mix_avx512_available()) {
    expect_rt_all_matches_per_table<true>(tage::TageConfig::kb8(), 0x8B);
  }
}

TEST(MixBatch, RtAllMatchesPerTableRtKb64) {
  expect_rt_all_matches_per_table<false>(tage::TageConfig::kb64(), 0x65);
  if (detail::mix_avx512_available()) {
    expect_rt_all_matches_per_table<true>(tage::TageConfig::kb64(), 0x64);
  }
}

TEST(MixBatch, RtAllCoversEveryLanePaddingAndTheScalarFallback) {
  // The portable T-table kernel, the one every host can run.
  expect_rt_all_matches_every_table_count<false>();
}

TEST(MixBatch, RtAllAvx512KernelMatchesPerTableRt) {
  if (!detail::mix_avx512_available()) {
    GTEST_SKIP() << "host lacks AVX-512F/BW: rt_all runs the portable kernel here, "
                    "which RtAllCoversEveryLanePaddingAndTheScalarFallback covers";
  }
  expect_rt_all_matches_every_table_count<true>();
}

}  // namespace
}  // namespace stbpu::core
