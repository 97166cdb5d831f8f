// Secure BPU model vocabulary (paper §VII-B1): the evaluated designs, all
// built around the same CorePredictorT machinery by models::make_engine
// (models/engine.h) —
//   * unprotected  — baseline mapping, no policies (the normalization base);
//   * ucode1       — IBPB + IBRS: flush the whole BPU on context switches
//                    and the target structures on kernel entry;
//   * ucode2       — ucode1 + STIBP: logically partition the BTB between
//                    SMT hardware threads;
//   * conservative — full 48-bit BTB tags + untruncated targets (collision-
//                    free by construction) at reduced capacity, plus the
//                    ucode flush policy: stops every known collision attack
//                    the way structural changes would;
//   * stbpu        — secret-token remapping + φ encryption + event-driven
//                    re-randomization (the paper's design);
//   * cibpu        — rival arm (arxiv 2501.10983): keyed indexing like
//                    STBPU plus conflict-invisible domain-widened BTB tags,
//                    but plaintext payloads (core/cibpu_mapping.h);
//   * xor_isolation— rival arm (arxiv 2005.08183): baseline indexing XORed
//                    with cheap per-domain masks + φ entry encryption
//                    (core/xor_isolation_mapping.h).
// Each model can host any of the four direction predictors of §VII-B2
// (SKLCond, TAGE-SC-L 8KB/64KB, PerceptronBP). This header holds the kind
// enums and their names, the ModelSpec a model is built from, and the
// conservative arm's mapping.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "bpu/mapping.h"
#include "bpu/types.h"
#include "util/bits.h"

namespace stbpu::models {

enum class ModelKind : std::uint8_t {
  kUnprotected,
  kUcode1,        // IBPB + IBRS
  kUcode2,        // IBPB + IBRS + STIBP
  kConservative,  // full tags, reduced capacity, flush
  kStbpu,
  kCibpu,          // rival arm: conflict-invisible keyed indexing
  kXorIsolation,   // rival arm: XOR index masks + entry encryption
};

enum class DirectionKind : std::uint8_t {
  kSklCond,
  kTage8,
  kTage64,
  kPerceptron,
};

[[nodiscard]] std::string to_string(ModelKind m);
[[nodiscard]] std::string to_string(DirectionKind d);

/// Every registered model kind, in declaration order — the one list the
/// parsers, scenario grids and parametrized tests iterate so a new arm
/// shows up everywhere by construction.
[[nodiscard]] std::span<const ModelKind> all_model_kinds();
[[nodiscard]] std::span<const DirectionKind> all_direction_kinds();

/// Parse a model/direction kind from its to_string name. On failure the
/// error names the offending string AND lists every registered kind —
/// `unknown model kind 'foo' (registered: unprotected, ..., XOR_isolation)`
/// — so a typo in a spec or CLI flag is self-diagnosing.
[[nodiscard]] bool parse_model_kind(std::string_view name, ModelKind& out,
                                    std::string& err);
[[nodiscard]] bool parse_direction_kind(std::string_view name, DirectionKind& out,
                                        std::string& err);

/// Conservative mapping logic: the BTB keeps the complete 48-bit branch
/// address (set bits excluded) as its tag and the complete target — no
/// compression, no truncation, hence no aliasing. Budget-neutral capacity
/// reduction is applied by the factory (2048 entries vs 4096; see the
/// model notes in docs/EXPERIMENTS.md). Shadows the baseline methods it
/// changes.
class ConservativeMappingLogic : public bpu::BaselineMappingLogic {
 public:
  // Budget-neutral entry count: a baseline entry is ~45 bits (8 tag + 5
  // offset + 32 target); a conservative entry holds the full remaining
  // address (35 bits) + full 48-bit target + metadata ~= 120 bits. The
  // 4096-entry budget therefore shrinks to ~1024 entries.
  static constexpr unsigned kSets = 128;

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip, const bpu::ExecContext&) const {
    return bpu::BtbIndex{
        .set = static_cast<std::uint32_t>(util::bits(ip, 5, 8)),
        .tag = (ip & bpu::kVirtualAddressMask) >> 13,  // full remaining address
        .offset = static_cast<std::uint32_t>(util::bits(ip, 0, 5)),
    };
  }
  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const bpu::ExecContext&) const {
    return target & bpu::kVirtualAddressMask;
  }
  [[nodiscard]] std::uint64_t decode_target(std::uint64_t, std::uint64_t stored,
                                            const bpu::ExecContext&) const {
    return stored;
  }
};

struct ModelSpec {
  ModelKind model = ModelKind::kUnprotected;
  DirectionKind direction = DirectionKind::kSklCond;
  /// Attack-difficulty factor r for STBPU thresholds (Γ = r · C, §VII-A).
  double rerand_difficulty_r = 0.05;
  std::uint64_t seed = 0x57B9;
  /// Explicit monitor thresholds (0 = derive from rerand_difficulty_r via
  /// MonitorConfig::from_difficulty) — the spec-level "monitor" overrides
  /// land here so sweeps can pin Γ without recompiling.
  std::uint64_t misprediction_threshold = 0;
  std::uint64_t eviction_threshold = 0;
  std::uint64_t tagged_misprediction_threshold = 0;
};

}  // namespace stbpu::models
