// The keyed remapping functions R1..R4, Rt, Rp of Table II.
//
// Each is the software rendering of a hardware circuit found by the
// generator in src/remapgen/: alternating substitution layers (PRESENT and
// SPONGENT 4-bit S-boxes, applied nibble-parallel), permutation layers
// (fixed wire crossings, realised branch-free as delta swaps + rotations),
// σ diffusion layers (rotate-XORs) and XOR compression layers — no
// multiplies, so the transistor-count argument of §V-A (critical path ≤ 45
// transistors, single cycle) carries over. The functions consume the full
// 48-bit virtual address (crucial against same-address-space attacks [78])
// plus the 32-bit ψ key, and differ from one another by fixed round tweaks.
//
// The circuit is what §V-A prices; only its software rendering is
// table-driven. Everything a round does after its S-box layer (P-box
// wiring, σ, and in the last round the final fold) is GF(2)-linear, so a
// whole round is the XOR of eight byte-indexed tables — the classic
// T-table form of an SPN: T_r[j][b] is the round's wiring applied to S-box
// byte b placed at byte j. The three round tables (kMixRound1..3, 8 × 256
// u64 each, 48 KiB of read-only data) are built at compile time from the
// S-box LUTs and the layered wiring below; the key and `hi` XORs stay
// between rounds. tests/core/remap_kat_test.cc checks every table entry
// against the layered S → P → σ composition and pins mix() and every R
// function to known-answer rows from the layered rendering.
//
// Batched lanes have a second rendering of the same circuit: the AVX-512
// kernel below (S-boxes as in-register nibble shuffles, eight lanes per
// vector, each lane with its own key), which Remapper::rt_all uses to
// compute all of a TAGE access's Rt lanes in one pass. Hosts without
// AVX-512F/BW run the portable T-table mix_batch<N> instead; both are
// bit-identical to mix() (tests/core/mix_batch_test.cc).
//
// tests/core/remap_test.cc validates the same C2 (uniformity) and C3
// (avalanche) criteria the generator enforces, over every R function.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "bpu/mapping.h"
#include "util/bits.h"

// The AVX-512 rendering of the batched mix kernel: vpshufb IS the hardware
// S-box (a 16-entry 4-bit table lookup per byte, in registers, no memory),
// so a full 64-bit substitution layer is two shuffles + nibble glue over
// eight lanes at once — the software analogue of the paper's parallel S-box
// rows. vprolq renders the rotations and vpternlogq every 3-input XOR (σ,
// the key/`hi` injections, the delta swaps' exchange step). Functions carry
// the target("avx512f,avx512bw") attribute and are dispatched at runtime,
// so the binary stays baseline-x86-64 portable.
#if defined(__x86_64__) && defined(__GNUC__)
#define STBPU_MIX_AVX512 1
#include <immintrin.h>
#endif

namespace stbpu::core {

namespace detail {

/// PRESENT S-box [10] — optimal 4-bit nonlinearity, trivially hardware-able.
inline constexpr std::array<std::uint8_t, 16> kPresentSbox = {
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2};
/// SPONGENT S-box [11].
inline constexpr std::array<std::uint8_t, 16> kSpongentSbox = {
    0xE, 0xD, 0xB, 0x0, 0x2, 0x1, 0x4, 0xF, 0x7, 0xA, 0x8, 0x5, 0x9, 0xC, 0x3, 0x6};

/// Expand a 4-bit S-box into a byte-level LUT (two parallel S-boxes): the
/// substitution half of each round table below.
consteval std::array<std::uint8_t, 256> expand_sbox(
    const std::array<std::uint8_t, 16>& s) {
  std::array<std::uint8_t, 256> t{};
  for (unsigned i = 0; i < 256; ++i) {
    t[i] = static_cast<std::uint8_t>((s[i >> 4] << 4) | s[i & 0xF]);
  }
  return t;
}

inline constexpr auto kPresentByteLut = expand_sbox(kPresentSbox);
inline constexpr auto kSpongentByteLut = expand_sbox(kSpongentSbox);

/// The layered 64-bit substitution layer, eight byte-LUT reads. No runtime
/// path calls it any more; the tests check the round tables against it.
template <const std::array<std::uint8_t, 256>& Lut>
constexpr std::uint64_t sbox_layer(std::uint64_t x) noexcept {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < 8; ++i) {
    r |= static_cast<std::uint64_t>(Lut[(x >> (8 * i)) & 0xFF]) << (8 * i);
  }
  return r;
}

/// Delta swap: exchanges the bit groups selected by `m` with the groups `s`
/// positions up — pure wiring in hardware, three gates' worth in software.
constexpr std::uint64_t delta_swap(std::uint64_t x, std::uint64_t m, unsigned s) noexcept {
  const std::uint64_t t = ((x >> s) ^ x) & m;
  return x ^ t ^ (t << s);
}

/// Fixed permutation layers (P-boxes) — bit scrambles chosen by the
/// generator; two distinct wirings give inter-nibble diffusion.
constexpr std::uint64_t pbox_a(std::uint64_t x) noexcept {
  x = delta_swap(x, 0x00000000FFFF0000ULL, 32);
  x = delta_swap(x, 0x0000FF000000FF00ULL, 8);
  x = delta_swap(x, 0x00F000F000F000F0ULL, 4);
  return util::rotl64(x, 29);
}
constexpr std::uint64_t pbox_b(std::uint64_t x) noexcept {
  x = delta_swap(x, 0x00000000F0F0F0F0ULL, 28);
  x = delta_swap(x, 0x0000CCCC0000CCCCULL, 14);
  x = delta_swap(x, 0x0A0A0A0A0A0A0A0AULL, 3);
  return util::rotl64(x, 17);
}

/// Sigma diffusion layer: each output bit XORs three state bits at fixed
/// rotational offsets — pure wiring plus one 3-input XOR gate per bit in
/// hardware (2 gate levels), and the cross-nibble diffusion the 4-bit
/// S-boxes cannot provide on their own. Offsets are coprime to 64 so the
/// dependency graph reaches every bit within two applications.
constexpr std::uint64_t sigma(std::uint64_t x, unsigned a, unsigned b) noexcept {
  return x ^ util::rotl64(x, a) ^ util::rotl64(x, b);
}

/// The GF(2)-linear wiring that follows each round's S-box layer in the
/// circuit: P-box then σ in rounds 1 and 2; σ then the final XOR
/// compression (C-S box row: fold the halves together) in round 3.
constexpr std::uint64_t round1_wiring(std::uint64_t x) noexcept {
  return sigma(pbox_a(x), 19, 43);
}
constexpr std::uint64_t round2_wiring(std::uint64_t x) noexcept {
  return sigma(pbox_b(x), 11, 50);
}
constexpr std::uint64_t round3_wiring(std::uint64_t x) noexcept {
  x = sigma(x, 29, 39);
  return x ^ (x >> 31);
}

/// One round in T-table form: entry [j][b] is the round's wiring applied
/// to S-box output byte b at byte position j.
using RoundTable = std::array<std::array<std::uint64_t, 256>, 8>;

consteval RoundTable make_round_table(const std::array<std::uint8_t, 256>& lut,
                                      std::uint64_t (*wiring)(std::uint64_t)) {
  RoundTable t{};
  for (unsigned j = 0; j < 8; ++j) {
    for (unsigned b = 0; b < 256; ++b) {
      t[j][b] = wiring(static_cast<std::uint64_t>(lut[b]) << (8 * j));
    }
  }
  return t;
}

alignas(64) inline constexpr RoundTable kMixRound1 =
    make_round_table(kPresentByteLut, round1_wiring);
alignas(64) inline constexpr RoundTable kMixRound2 =
    make_round_table(kSpongentByteLut, round2_wiring);
alignas(64) inline constexpr RoundTable kMixRound3 =
    make_round_table(kPresentByteLut, round3_wiring);

/// One whole round: S-box layer plus wiring as eight independent table
/// loads XORed together. Equals wiring(sbox_layer<Lut>(x)) because the
/// S-box bytes occupy disjoint bit ranges and the wiring is linear.
constexpr std::uint64_t table_round(const RoundTable& t, std::uint64_t x) noexcept {
  return ((t[0][x & 0xFF] ^ t[1][(x >> 8) & 0xFF]) ^
          (t[2][(x >> 16) & 0xFF] ^ t[3][(x >> 24) & 0xFF])) ^
         ((t[4][(x >> 32) & 0xFF] ^ t[5][(x >> 40) & 0xFF]) ^
          (t[6][(x >> 48) & 0xFF] ^ t[7][x >> 56]));
}

/// ψ spread over both halves of the 64-bit key, XORed with a round tweak:
/// the key every mix kernel starts from.
constexpr std::uint64_t mix_key(std::uint32_t psi, std::uint64_t tweak) noexcept {
  return (static_cast<std::uint64_t>(psi) << 32 | psi) ^ tweak;
}

/// Core keyed compression: up to 128 input bits (ψ-spread ⊕ tweak as the
/// round keys, `lo`/`hi` as data) → 64 mixed bits. Three S/P/σ rounds — the
/// depth Figure 2's winning R1 circuit has — each one table_round.
constexpr std::uint64_t mix(std::uint64_t lo, std::uint64_t hi, std::uint32_t psi,
                            std::uint64_t tweak) noexcept {
  const std::uint64_t k = mix_key(psi, tweak);
  std::uint64_t x = lo ^ util::rotl64(hi, 21) ^ k;
  x = table_round(kMixRound1, x);
  x ^= util::rotl64(hi, 47) ^ util::rotl64(k, 13);
  x = table_round(kMixRound2, x);
  x ^= util::rotl64(k, 37);
  return table_round(kMixRound3, x);
}

/// Width-N batched mix: N independent (lo, hi) inputs under one (ψ, tweak)
/// key — the shape every compacted remap-cache miss list has, since one
/// batch services one R function. The per-stage loops over the lane array
/// break the single mix's serial dependence: each stage issues N
/// independent chains, so the out-of-order core overlaps their table loads
/// and the cost per mix moves from the latency of the 3-round chain to the
/// throughput of the load ports. Each lane runs the same round tables as
/// scalar mix(), so the kernel is bit-identical to it lane by lane
/// (tests/core/mix_batch_test.cc).
template <unsigned N>
inline void mix_batch(const std::uint64_t* lo, const std::uint64_t* hi,
                      std::uint32_t psi, std::uint64_t tweak,
                      std::uint64_t* out) noexcept {
  static_assert(N >= 1 && N <= 16, "lane count outside the profitable range");
  const std::uint64_t k = mix_key(psi, tweak);
  const std::uint64_t k13 = util::rotl64(k, 13);
  const std::uint64_t k37 = util::rotl64(k, 37);
  std::uint64_t x[N];
  for (unsigned i = 0; i < N; ++i) x[i] = lo[i] ^ util::rotl64(hi[i], 21) ^ k;
  for (unsigned i = 0; i < N; ++i) x[i] = table_round(kMixRound1, x[i]);
  for (unsigned i = 0; i < N; ++i) x[i] ^= util::rotl64(hi[i], 47) ^ k13;
  for (unsigned i = 0; i < N; ++i) x[i] = table_round(kMixRound2, x[i]);
  for (unsigned i = 0; i < N; ++i) x[i] ^= k37;
  for (unsigned i = 0; i < N; ++i) out[i] = table_round(kMixRound3, x[i]);
}

#if STBPU_MIX_AVX512

#define STBPU_AVX512 __attribute__((target("avx512f,avx512bw")))

/// True once at startup when the host executes AVX-512F and AVX-512BW (the
/// binary itself is compiled for baseline x86-64; only the attributed
/// functions below use them).
[[nodiscard]] inline bool mix_avx512_available() noexcept {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return ok;
}

namespace avx512 {

/// vpternlogq truth tables: f(a, b, c) is bit (a << 2 | b << 1 | c) of
/// the immediate.
inline constexpr int kXor3 = 0x96;       ///< a ^ b ^ c
inline constexpr int kXorAndMask = 0x28; ///< (a ^ b) & c

STBPU_AVX512 inline __m512i xor3(__m512i a, __m512i b, __m512i c) noexcept {
  return _mm512_ternarylogic_epi64(a, b, c, kXor3);
}

/// Shifts and rotations take their counts as template arguments: the
/// instructions encode them as immediates, which unoptimized builds only
/// see through a constant expression. They use the zero-masking forms
/// under a full mask, which compile to the plain instructions; GCC 12's
/// unmasked forms merge into a deliberately uninitialized vector and trip
/// -Wuninitialized once inlined.
inline constexpr __mmask8 kAll = 0xFF;

template <unsigned S>
STBPU_AVX512 inline __m512i shl(__m512i x) noexcept {
  return _mm512_maskz_slli_epi64(kAll, x, S);
}
template <unsigned S>
STBPU_AVX512 inline __m512i shr(__m512i x) noexcept {
  return _mm512_maskz_srli_epi64(kAll, x, S);
}
template <unsigned S>
STBPU_AVX512 inline __m512i rotl(__m512i x) noexcept {
  return _mm512_maskz_rol_epi64(kAll, x, S);
}

/// A 16-byte S-box broadcast to every 128-bit lane (vpshufb's table).
STBPU_AVX512 inline __m512i sbox_table(const std::array<std::uint8_t, 16>& s) noexcept {
  return _mm512_maskz_broadcast_i32x4(
      0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.data())));
}

/// One substitution layer over eight 64-bit lanes: the 4-bit S-box lives in
/// a register (16 bytes, broadcast per 128-bit lane) and vpshufb applies it
/// to all 16 nibbles of every lane simultaneously — zero table loads.
STBPU_AVX512 inline __m512i sbox_layer(__m512i x, __m512i tbl) noexcept {
  const __m512i nib = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_and_si512(x, nib);
  const __m512i hi = _mm512_and_si512(shr<4>(x), nib);
  // S[hi] bytes are <= 0x0F, so the 64-bit left shift cannot carry bits
  // across byte boundaries — no extra mask needed.
  return _mm512_or_si512(_mm512_shuffle_epi8(tbl, lo),
                         shl<4>(_mm512_shuffle_epi8(tbl, hi)));
}

template <std::uint64_t M, unsigned S>
STBPU_AVX512 inline __m512i delta_swap(__m512i x) noexcept {
  const __m512i t = _mm512_ternarylogic_epi64(
      shr<S>(x), x, _mm512_set1_epi64(static_cast<long long>(M)), kXorAndMask);
  return xor3(x, t, shl<S>(t));
}

STBPU_AVX512 inline __m512i pbox_a(__m512i x) noexcept {
  x = delta_swap<0x00000000FFFF0000ULL, 32>(x);
  x = delta_swap<0x0000FF000000FF00ULL, 8>(x);
  x = delta_swap<0x00F000F000F000F0ULL, 4>(x);
  return rotl<29>(x);
}

STBPU_AVX512 inline __m512i pbox_b(__m512i x) noexcept {
  x = delta_swap<0x00000000F0F0F0F0ULL, 28>(x);
  x = delta_swap<0x0000CCCC0000CCCCULL, 14>(x);
  x = delta_swap<0x0A0A0A0A0A0A0A0AULL, 3>(x);
  return rotl<17>(x);
}

template <unsigned A, unsigned B>
STBPU_AVX512 inline __m512i sigma(__m512i x) noexcept {
  return xor3(x, rotl<A>(x), rotl<B>(x));
}

/// V vectors of eight lanes through the whole S/P/σ circuit, walked stage
/// by stage (all vectors per stage, for cross-vector ILP), mirroring scalar
/// mix() statement for statement. Each lane carries its own key k (ψ
/// spread ⊕ that lane's tweak), so one pass can serve several R functions.
/// `x` holds `lo` on entry and the mix on return.
template <unsigned V>
STBPU_AVX512 inline void mix_vectors(__m512i (&x)[V], const __m512i (&h)[V],
                                     const __m512i (&k)[V]) noexcept {
  const __m512i present = sbox_table(kPresentSbox);
  const __m512i spongent = sbox_table(kSpongentSbox);
  for (unsigned v = 0; v < V; ++v) x[v] = xor3(x[v], rotl<21>(h[v]), k[v]);
  for (unsigned v = 0; v < V; ++v) x[v] = sbox_layer(x[v], present);
  for (unsigned v = 0; v < V; ++v) x[v] = sigma<19, 43>(pbox_a(x[v]));
  for (unsigned v = 0; v < V; ++v) x[v] = xor3(x[v], rotl<47>(h[v]), rotl<13>(k[v]));
  for (unsigned v = 0; v < V; ++v) x[v] = sbox_layer(x[v], spongent);
  for (unsigned v = 0; v < V; ++v) x[v] = sigma<11, 50>(pbox_b(x[v]));
  for (unsigned v = 0; v < V; ++v) x[v] = _mm512_xor_si512(x[v], rotl<37>(k[v]));
  for (unsigned v = 0; v < V; ++v) x[v] = sbox_layer(x[v], present);
  for (unsigned v = 0; v < V; ++v) x[v] = sigma<29, 39>(x[v]);
  for (unsigned v = 0; v < V; ++v) {
    x[v] = _mm512_xor_si512(x[v], shr<31>(x[v]));
  }
}

/// Lanes [lane0, lane0 + 8) that fall below `bound`, as a load/store mask.
inline __mmask8 lanes_below(unsigned bound, unsigned lane0) noexcept {
  return bound <= lane0 ? 0 : bound - lane0 >= 8 ? 0xFF : (1u << (bound - lane0)) - 1;
}

/// mix_batch<N> on the AVX-512 kernel: N lanes under one key, as whole
/// vectors whose tail lanes are masked off on load and store.
template <unsigned N>
STBPU_AVX512 inline void mix_batch(const std::uint64_t* lo, const std::uint64_t* hi,
                                   std::uint32_t psi, std::uint64_t tweak,
                                   std::uint64_t* out) noexcept {
  constexpr unsigned V = (N + 7) / 8;
  __m512i x[V], h[V], k[V];
  for (unsigned v = 0; v < V; ++v) {
    x[v] = _mm512_maskz_loadu_epi64(lanes_below(N, 8 * v), lo + 8 * v);
    h[v] = _mm512_maskz_loadu_epi64(lanes_below(N, 8 * v), hi + 8 * v);
    k[v] = _mm512_set1_epi64(static_cast<long long>(mix_key(psi, tweak)));
  }
  mix_vectors<V>(x, h, k);
  for (unsigned v = 0; v < V; ++v) {
    _mm512_mask_storeu_epi64(out + 8 * v, lanes_below(N, 8 * v), x[v]);
  }
}

/// Up to four vectors of Rt lanes starting at lane `first`: lanes below
/// `n_index` are keyed `k_index`, the rest `k_tag`; lanes at or past
/// `lanes` read zero inputs (masked loads) and their outputs are dropped
/// by the caller.
template <unsigned V>
STBPU_AVX512 inline void rt_chunk(std::uint64_t lo, const std::uint64_t* hi,
                                  unsigned first, unsigned n_index, unsigned lanes,
                                  std::uint64_t k_index, std::uint64_t k_tag,
                                  std::uint64_t* out) noexcept {
  const __m512i ki = _mm512_set1_epi64(static_cast<long long>(k_index));
  const __m512i kt = _mm512_set1_epi64(static_cast<long long>(k_tag));
  __m512i x[V], h[V], k[V];
  for (unsigned v = 0; v < V; ++v) {
    const unsigned lane0 = first + 8 * v;
    x[v] = _mm512_set1_epi64(static_cast<long long>(lo));
    h[v] = _mm512_maskz_loadu_epi64(lanes_below(lanes, lane0), hi + lane0);
    k[v] = _mm512_mask_blend_epi64(lanes_below(n_index, lane0), kt, ki);
  }
  mix_vectors<V>(x, h, k);
  for (unsigned v = 0; v < V; ++v) _mm512_storeu_si512(out + first + 8 * v, x[v]);
}

/// The fused Rt pass: `lanes` lanes of one (ψ-spread, `lo`) input, lanes
/// [0, n_index) under `k_index` and the rest under `k_tag`, written to
/// out[0, lanes rounded up to a whole vector).
STBPU_AVX512 inline void rt_lanes(std::uint64_t lo, const std::uint64_t* hi,
                                  unsigned n_index, unsigned lanes, std::uint64_t k_index,
                                  std::uint64_t k_tag, std::uint64_t* out) noexcept {
  const unsigned vectors = (lanes + 7) / 8;
  for (unsigned v = 0; v < vectors; v += 4) {
    const unsigned first = 8 * v;
    switch (std::min(4u, vectors - v)) {
      case 1:
        rt_chunk<1>(lo, hi, first, n_index, lanes, k_index, k_tag, out);
        break;
      case 2:
        rt_chunk<2>(lo, hi, first, n_index, lanes, k_index, k_tag, out);
        break;
      case 3:
        rt_chunk<3>(lo, hi, first, n_index, lanes, k_index, k_tag, out);
        break;
      default:
        rt_chunk<4>(lo, hi, first, n_index, lanes, k_index, k_tag, out);
        break;
    }
  }
}

}  // namespace avx512

#else  // !STBPU_MIX_AVX512

[[nodiscard]] inline bool mix_avx512_available() noexcept { return false; }

#endif  // STBPU_MIX_AVX512

/// Production batched-mix entry point: the AVX-512 kernel when the host
/// executes it, else the portable T-table lane kernel. Bit-identical either
/// way (tests/core/mix_batch_test.cc).
template <unsigned N>
inline void mix_batch_dispatch(const std::uint64_t* lo, const std::uint64_t* hi,
                               std::uint32_t psi, std::uint64_t tweak,
                               std::uint64_t* out) noexcept {
#if STBPU_MIX_AVX512
  if (mix_avx512_available()) {
    avx512::mix_batch<N>(lo, hi, psi, tweak, out);
    return;
  }
#endif
  mix_batch<N>(lo, hi, psi, tweak, out);
}

}  // namespace detail

/// Stateless keyed remapping per Table II. Per-function tweak constants make
/// R1..R4/Rt/Rp mutually independent even under one ψ.
class Remapper {
 public:
  // Table II output geometry (baseline Skylake-like structures).
  static constexpr unsigned kBtbSetBits = 9;
  static constexpr unsigned kBtbTagBits = 8;
  static constexpr unsigned kBtbOffsetBits = 5;
  static constexpr unsigned kPhtIndexBits = 14;
  static constexpr unsigned kGhrBitsUsed = 16;  ///< STBPU consumes 16 GHR bits

  // Per-function round tweaks (the constants that make R1..R4/Rt/Rp
  // mutually independent under one ψ). Named so the batched probe/fill
  // path (core/remap_cache.h) can feed compacted miss lists through
  // detail::mix_batch with exactly the tweak the scalar function uses.
  static constexpr std::uint64_t kTweakR1 = 0xB7E151628AED2A6AULL;
  static constexpr std::uint64_t kTweakR2 = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kTweakR3 = 0x3C6EF372FE94F82BULL;
  static constexpr std::uint64_t kTweakR4 = 0xA54FF53A5F1D36F1ULL;
  static constexpr std::uint64_t kTweakRtIndex = 0x510E527FADE682D1ULL;
  static constexpr std::uint64_t kTweakRtTag = 0x9B05688C2B3E6C1FULL;
  static constexpr std::uint64_t kTweakRp = 0x1F83D9ABFB41BD6BULL;

  // Output extraction from a finished mix — shared by the scalar functions
  // and the batch fill path so the bit geometry has one source of truth.
  [[nodiscard]] static constexpr bpu::BtbIndex r1_from_mix(std::uint64_t m) noexcept {
    // Tag stays in the full 64-bit BtbIndex field (already masked to
    // kBtbTagBits by util::bits) — same width handling as r1_scaled, no
    // narrow-then-rewiden cast.
    return bpu::BtbIndex{
        .set = static_cast<std::uint32_t>(util::bits(m, 0, kBtbSetBits)),
        .tag = util::bits(m, kBtbSetBits, kBtbTagBits),
        .offset = static_cast<std::uint32_t>(
            util::bits(m, kBtbSetBits + kBtbTagBits, kBtbOffsetBits)),
    };
  }
  [[nodiscard]] static constexpr std::uint32_t pht_from_mix(std::uint64_t m) noexcept {
    return static_cast<std::uint32_t>(util::bits(m, 0, kPhtIndexBits));
  }
  [[nodiscard]] static constexpr std::uint32_t rp_from_mix(std::uint64_t m,
                                                           unsigned row_bits) noexcept {
    return static_cast<std::uint32_t>(util::bits(m, 0, row_bits));
  }
  [[nodiscard]] static constexpr std::uint32_t rt_index_from_mix(
      std::uint64_t m, unsigned index_bits) noexcept {
    return static_cast<std::uint32_t>(util::bits(m, 0, index_bits));
  }
  [[nodiscard]] static constexpr std::uint32_t rt_tag_from_mix(std::uint64_t m,
                                                               unsigned tag_bits) noexcept {
    // Tag drawn from a disjoint bit window so index/tag are not correlated.
    return static_cast<std::uint32_t>(util::bits(m, 14, tag_bits));
  }

  /// R1(80 ↦ 22): ψ + 48-bit address → BTB set/tag/offset.
  [[nodiscard]] static bpu::BtbIndex r1(std::uint32_t psi, std::uint64_t ip) noexcept {
    return r1_from_mix(detail::mix(ip & bpu::kVirtualAddressMask, 0, psi, kTweakR1));
  }

  /// R2(90 ↦ 8): ψ + 58-bit BHB → mode-2 tag component.
  [[nodiscard]] static std::uint32_t r2(std::uint32_t psi, std::uint64_t bhb) noexcept {
    const std::uint64_t m = detail::mix(bhb, bhb >> 32, psi, kTweakR2);
    return static_cast<std::uint32_t>(util::bits(m, 0, kBtbTagBits));
  }

  /// R3(80 ↦ 14): ψ + 48-bit address → PHT 1-level index.
  [[nodiscard]] static std::uint32_t r3(std::uint32_t psi, std::uint64_t ip) noexcept {
    return pht_from_mix(detail::mix(ip & bpu::kVirtualAddressMask, 0, psi, kTweakR3));
  }

  /// R4(96 ↦ 14): ψ + 16-bit GHR + 48-bit address → PHT 2-level index.
  [[nodiscard]] static std::uint32_t r4(std::uint32_t psi, std::uint64_t ip,
                                        std::uint64_t ghr) noexcept {
    return pht_from_mix(detail::mix(ip & bpu::kVirtualAddressMask,
                                    util::bits(ghr, 0, kGhrBitsUsed), psi, kTweakR4));
  }

  /// Rt(80↑ ↦ 25): ψ + 48-bit address + folded geometric history →
  /// per-table TAGE index/tag (10/8 bits for the 8KB config, 13/12 for 64KB).
  [[nodiscard]] static std::uint32_t rt_index(std::uint32_t psi, std::uint64_t ip,
                                              std::uint64_t folded_hist, unsigned table,
                                              unsigned index_bits) noexcept {
    const std::uint64_t m =
        detail::mix(ip & bpu::kVirtualAddressMask,
                    folded_hist ^ (std::uint64_t{table} << 58), psi, kTweakRtIndex);
    return rt_index_from_mix(m, index_bits);
  }
  [[nodiscard]] static std::uint32_t rt_tag(std::uint32_t psi, std::uint64_t ip,
                                            std::uint64_t folded_hist, unsigned table,
                                            unsigned tag_bits) noexcept {
    const std::uint64_t m =
        detail::mix(ip & bpu::kVirtualAddressMask,
                    folded_hist ^ (std::uint64_t{table} << 58), psi, kTweakRtTag);
    return rt_tag_from_mix(m, tag_bits);
  }

  /// Most tagged tables rt_all serves (TagePredictorT enforces the bound).
  static constexpr unsigned kMaxRtTables = 32;
  /// Lane capacity of the fused Rt pass: an index and a tag lane per table
  /// plus the loop-tag lane, rounded up to whole eight-lane vectors.
  static constexpr unsigned kRtLanes = (2 * kMaxRtTables + 1 + 7) / 8 * 8;

  /// Every tagged table's Rt index and tag for one TAGE access: table t
  /// keys its index on `index_keys[t]` and its tag on `tag_keys[t]`, so
  /// idx_out[t] == rt_index(psi, ip, index_keys[t], t, index_bits) and
  /// tag_out[t] == rt_tag(psi, ip, tag_keys[t], t, tag_bits). A non-null
  /// `loop_tag_out` also receives the loop predictor's tag, rt_tag(psi, ip,
  /// 0, bpu::kTageLoopTagTable, bpu::kTageLoopTagBits).
  ///
  /// One fused pass computes every lane: n index lanes, n tag lanes and
  /// the loop-tag lane, each with its own tweak. The AVX-512 kernel runs
  /// them as ⌈lanes/8⌉ eight-lane vectors (2 for the 8KB predictor, 3 for
  /// the 64KB one); hosts without AVX-512F/BW run the portable T-table
  /// mix_batch<N> (up to 16 lanes a call) over the index lanes and then
  /// the tag lanes.
  /// `UseAvx512 = false` pins the portable kernel (tests compare both
  /// renderings against the scalar functions). Requires n <= kMaxRtTables.
  template <bool UseAvx512 = true>
  static void rt_all(std::uint32_t psi, std::uint64_t ip, const std::uint64_t* index_keys,
                     const std::uint64_t* tag_keys, unsigned n, unsigned index_bits,
                     unsigned tag_bits, std::uint32_t* idx_out, std::uint32_t* tag_out,
                     std::uint32_t* loop_tag_out) noexcept {
    const unsigned lanes = 2 * n + (loop_tag_out != nullptr ? 1 : 0);
    alignas(64) std::uint64_t hi[kRtLanes], m[kRtLanes];
    for (unsigned t = 0; t < n; ++t) {
      const std::uint64_t table = std::uint64_t{t} << 58;
      hi[t] = index_keys[t] ^ table;
      hi[n + t] = tag_keys[t] ^ table;
    }
    if (loop_tag_out != nullptr) hi[2 * n] = std::uint64_t{bpu::kTageLoopTagTable} << 58;
    const std::uint64_t lo = ip & bpu::kVirtualAddressMask;
#if STBPU_MIX_AVX512
    if (UseAvx512 && detail::mix_avx512_available()) {
      detail::avx512::rt_lanes(lo, hi, n, lanes, detail::mix_key(psi, kTweakRtIndex),
                               detail::mix_key(psi, kTweakRtTag), m);
    } else
#endif
    {
      rt_lanes_portable(lo, hi, n, lanes, psi, m);
    }
    for (unsigned t = 0; t < n; ++t) {
      idx_out[t] = rt_index_from_mix(m[t], index_bits);
      tag_out[t] = rt_tag_from_mix(m[n + t], tag_bits);
    }
    if (loop_tag_out != nullptr) {
      *loop_tag_out = rt_tag_from_mix(m[2 * n], bpu::kTageLoopTagBits);
    }
  }

  /// Rp(80 ↦ 10): ψ + 48-bit address → perceptron row.
  [[nodiscard]] static std::uint32_t rp(std::uint32_t psi, std::uint64_t ip,
                                        unsigned row_bits) noexcept {
    return rp_from_mix(detail::mix(ip & bpu::kVirtualAddressMask, 0, psi, kTweakRp),
                       row_bits);
  }

  /// R1 with parameterized output geometry — used by the scaled-down
  /// structures that validate the §VI equations empirically (attack cost
  /// scales with I·T·O, so experiments shrink the structure, measure, and
  /// compare against the closed forms at both scales).
  [[nodiscard]] static bpu::BtbIndex r1_scaled(std::uint32_t psi, std::uint64_t ip,
                                               unsigned set_bits, unsigned tag_bits,
                                               unsigned offset_bits) noexcept {
    const std::uint64_t m =
        detail::mix(ip & bpu::kVirtualAddressMask, 0, psi, kTweakR1);
    return bpu::BtbIndex{
        .set = static_cast<std::uint32_t>(util::bits(m, 0, set_bits)),
        .tag = util::bits(m, set_bits, tag_bits),
        .offset = static_cast<std::uint32_t>(
            util::bits(m, set_bits + tag_bits, offset_bits)),
    };
  }

 private:
  /// rt_all's portable kernel: mix_batch over the index lanes under the
  /// index tweak, then over the tag lanes under the tag tweak.
  static void rt_lanes_portable(std::uint64_t lo, std::uint64_t* hi, unsigned n,
                                unsigned lanes, std::uint32_t psi,
                                std::uint64_t* out) noexcept {
    std::fill(hi + lanes, hi + kRtLanes, 0);
    std::uint64_t l[16];
    std::fill_n(l, 16, lo);
    mix_portable(l, hi, n, psi, kTweakRtIndex, out);
    mix_portable(l, hi + n, lanes - n, psi, kTweakRtTag, out + n);
  }
  /// mix_batch over `count` lanes under one tweak, in chunks of at most 16
  /// lanes, each rounded up to a multiple of four (the padding lanes run
  /// zero inputs and are overwritten or dropped).
  static void mix_portable(const std::uint64_t* lo, const std::uint64_t* hi, unsigned count,
                           std::uint32_t psi, std::uint64_t tweak,
                           std::uint64_t* out) noexcept {
    for (unsigned s = 0; s < count; s += 16) {
      switch ((std::min(count - s, 16u) + 3) / 4) {
        case 1:
          detail::mix_batch<4>(lo, hi + s, psi, tweak, out + s);
          break;
        case 2:
          detail::mix_batch<8>(lo, hi + s, psi, tweak, out + s);
          break;
        case 3:
          detail::mix_batch<12>(lo, hi + s, psi, tweak, out + s);
          break;
        default:
          detail::mix_batch<16>(lo, hi + s, psi, tweak, out + s);
          break;
      }
    }
  }
};

}  // namespace stbpu::core
