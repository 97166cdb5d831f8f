// mix_batch — the keyed-mix kernel study behind the batch-native
// prediction API. detail::mix() is the residual cost of the STBPU engine
// (~0.8 compulsory R4/Rt recomputations per branch whose history-keyed
// inputs are genuinely fresh), and it can be spent in two regimes:
//   * latency-bound — one mix at a time, each stage waiting on the last
//     (what the scalar demand path pays on every memo-cache miss);
//   * throughput-bound — N independent mixes interleaved so the machine
//     overlaps their table loads (what the remap cache's compacted miss
//     lists pay via detail::mix_batch<N>).
// This scenario measures both regimes for both renderings (the T-table
// rounds of scalar mix(), labelled "byte-lut", vs the layered 64K-entry
// double-byte S-box LUT) and records, per point, whether the kernel's
// outputs were bit-identical to scalar mix over the same inputs — the
// honesty check that backs the equivalence contract.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/remap.h"
#include "exp/scenarios_internal.h"
#include "exp/timing.h"
#include "util/rng.h"

namespace stbpu::exp {

namespace {

constexpr std::size_t kInputRing = 4096;  ///< divisible by every lane count
constexpr std::uint64_t kMixSeed = 0x5717'B9u;

struct MixInputs {
  std::vector<std::uint64_t> lo, hi;
  std::uint32_t psi;
};

MixInputs make_inputs(const ExperimentSpec& spec) {
  MixInputs in;
  util::Xoshiro256 rng(spec.seed != 0 ? spec.seed : kMixSeed);
  in.lo.resize(kInputRing);
  in.hi.resize(kInputRing);
  for (std::size_t i = 0; i < kInputRing; ++i) {
    in.lo[i] = rng() & bpu::kVirtualAddressMask;
    in.hi[i] = rng() & 0xFFFF;  // GHR-slice-shaped second operand
  }
  in.psi = static_cast<std::uint32_t>(rng());
  return in;
}

constexpr std::uint64_t kTweak = core::Remapper::kTweakR4;

/// One measured kernel variant: runs `iters` mixes over the input ring and
/// returns the XOR checksum (prevents dead-code elimination and feeds the
/// bit-identity check).
using KernelFn = std::uint64_t (*)(const MixInputs&, std::uint64_t iters);

std::uint64_t run_scalar_latency(const MixInputs& in, std::uint64_t iters) {
  // Dependent chain: each mix's input folds in the previous output, so the
  // measured cost is the full 3-round latency — the regime the demand path
  // pays on a compulsory miss.
  std::uint64_t x = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::size_t i = static_cast<std::size_t>(it) & (kInputRing - 1);
    x = core::detail::mix(in.lo[i] ^ x, in.hi[i], in.psi, kTweak);
  }
  return x;
}

std::uint64_t run_scalar_throughput(const MixInputs& in, std::uint64_t iters) {
  std::uint64_t acc = 0;
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::size_t i = static_cast<std::size_t>(it) & (kInputRing - 1);
    acc ^= core::detail::mix(in.lo[i], in.hi[i], in.psi, kTweak);
  }
  return acc;
}

template <bool UseLut16>
std::uint64_t run_lut_latency(const MixInputs& in, std::uint64_t iters) {
  std::uint64_t x = 0;
  std::uint64_t lo, out;
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::size_t i = static_cast<std::size_t>(it) & (kInputRing - 1);
    lo = in.lo[i] ^ x;
    core::detail::mix_batch<1, UseLut16>(&lo, &in.hi[i], in.psi, kTweak, &out);
    x = out;
  }
  return x;
}

template <unsigned N, bool UseLut16>
std::uint64_t run_batch(const MixInputs& in, std::uint64_t iters) {
  std::uint64_t acc = 0;
  std::uint64_t out[N];
  for (std::uint64_t it = 0; it + N <= iters; it += N) {
    const std::size_t i = static_cast<std::size_t>(it) & (kInputRing - 1);
    core::detail::mix_batch<N, UseLut16>(&in.lo[i], &in.hi[i], in.psi, kTweak, out);
    for (unsigned j = 0; j < N; ++j) acc ^= out[j];
  }
  return acc;
}

template <unsigned N>
std::uint64_t run_batch_simd(const MixInputs& in, std::uint64_t iters) {
  // The production dispatch path: AVX2 nibble-shuffle kernel where the
  // host has it, T-table lanes otherwise (the point reports which).
  std::uint64_t acc = 0;
  std::uint64_t out[N];
  for (std::uint64_t it = 0; it + N <= iters; it += N) {
    const std::size_t i = static_cast<std::size_t>(it) & (kInputRing - 1);
    core::detail::mix_batch_dispatch<N>(&in.lo[i], &in.hi[i], in.psi, kTweak, out);
    for (unsigned j = 0; j < N; ++j) acc ^= out[j];
  }
  return acc;
}

struct Variant {
  const char* label;
  const char* kernel;
  const char* regime;  ///< "latency" (dependent chain) or "throughput"
  unsigned lanes;      ///< mixes per kernel invocation (trim granularity)
  bool headline;       ///< include in the SPEEDUP-vs-scalar-latency rows
  KernelFn fn;
  KernelFn reference;  ///< scalar rendering of the identical computation
};

constexpr Variant kVariants[] = {
    {"scalar/latency", "byte-lut", "latency", 1, false, run_scalar_latency,
     run_scalar_latency},
    {"scalar/throughput", "byte-lut", "throughput", 1, false, run_scalar_throughput,
     run_scalar_throughput},
    {"lut16/latency", "lut16", "latency", 1, false, run_lut_latency<true>,
     run_scalar_latency},
    {"lut16/throughput", "lut16", "throughput", 1, false, run_batch<1, true>,
     run_scalar_throughput},
    {"batch4/byte-lut", "byte-lut", "throughput", 4, false, run_batch<4, false>,
     run_scalar_throughput},
    {"batch8/byte-lut", "byte-lut", "throughput", 8, true, run_batch<8, false>,
     run_scalar_throughput},
    {"batch4/lut16", "lut16", "throughput", 4, false, run_batch<4, true>,
     run_scalar_throughput},
    {"batch8/lut16", "lut16", "throughput", 8, true, run_batch<8, true>,
     run_scalar_throughput},
    {"batch4/simd", "simd-dispatch", "throughput", 4, false, run_batch_simd<4>,
     run_scalar_throughput},
    {"batch8/simd", "simd-dispatch", "throughput", 8, true, run_batch_simd<8>,
     run_scalar_throughput},
};
constexpr std::size_t kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);

class MixBatchScenario final : public ScenarioBase {
 public:
  MixBatchScenario()
      : ScenarioBase("mix_batch",
                     "Keyed-mix kernel study: scalar vs 16-bit-LUT vs N-lane "
                     "batched (latency vs throughput regimes)") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const Variant& v : kVariants) labels.emplace_back(v.label);
    return labels;
  }

  bool timing_sensitive(const ExperimentSpec&, std::size_t) const override {
    return true;  // every point is a best-of-3 wall-clock measurement
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const Variant& v = kVariants[index];
    const MixInputs in = make_inputs(spec);
    // trace_branches doubles as the mix budget; clamp up to the lane count
    // so a tiny override can never trim a lane kernel to zero measured
    // mixes (division by zero → `inf` in the JSON).
    const std::uint64_t iters =
        std::max<std::uint64_t>(v.lanes, spec.scale.trace_branches);

    std::uint64_t checksum = 0;
    double secs = 1e300;
    for (unsigned rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      checksum = v.fn(in, iters);
      secs = std::min(secs, std::max(sw.seconds(), 1e-9));
    }
    // Lane kernels drop the (iters % N) tail, so the scalar reference runs
    // the identical trimmed count — the checksums compare like for like.
    const std::uint64_t trimmed = iters - iters % v.lanes;
    const std::uint64_t reference = v.reference(in, trimmed);
    const double measured = static_cast<double>(trimmed);

    PointResult p;
    p.set("kernel", v.kernel)
        .set("regime", v.regime)
        .set("lanes", std::uint64_t{v.lanes})
        .set("ns_per_mix", secs * 1e9 / measured)
        .set("mixes_per_sec", measured / secs)
        .set("checksum", checksum)
        .set("identical_to_scalar", checksum == reference ? "true" : "false");
    if (std::string(v.kernel) == "simd-dispatch") {
      p.set("simd", core::detail::mix_avx2_available() ? "avx2" : "byte-lut-fallback");
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    for (const std::size_t i : selected_indices(spec, points.size())) {
      Row& row = out.rows.emplace_back(kVariants[i].label);
      row.fields = points[i].fields;
    }
    // Headline ratios: the batching win over the scalar demand path — how
    // much cheaper one compulsory miss becomes once it rides a compacted
    // 8-lane batch instead of a latency-bound chain.
    if (spec.selected(0)) {
      const double scalar_ns = points[0].num("ns_per_mix");
      for (std::size_t i = 0; i < kNumVariants; ++i) {
        if (!kVariants[i].headline || !spec.selected(i)) continue;
        const double batch_ns = points[i].num("ns_per_mix");
        if (batch_ns > 0) {
          out.rows.emplace_back(std::string("SPEEDUP/") + kVariants[i].label)
              .set("vs", "scalar/latency")
              .set("speedup", scalar_ns / batch_ns);
        }
      }
    }
    return out;
  }
};

}  // namespace

namespace scenarios {

void register_mix() { register_scenario(new MixBatchScenario); }

}  // namespace scenarios

}  // namespace stbpu::exp
