// The mapping-provider abstraction — the seam STBPU plugs into.
//
// Every BPU structure computes indexes/tags/offsets and encodes/decodes
// stored targets exclusively through this interface (functions 1-5 of the
// paper's Figure 1 plus the TAGE/perceptron hooks of Table II). The
// baseline provider below reproduces the legacy truncating/folding
// behaviour reverse-engineered from Intel parts — deterministic and
// collision-friendly, which is exactly what the Table I attacks exploit.
// The STBPU provider (src/core/stbpu_mapping.h) swaps in the keyed
// R-functions and the XOR target codec without touching the predictors.
//
// Two parallel renderings of each mapping exist:
//   * a non-virtual "logic" class (BaselineMappingLogic here, the STBPU
//     equivalents in src/core/) consumed by the templated predictors — the
//     devirtualized hot path the simulation engine is built on;
//   * a thin MappingProvider adapter that delegates to the logic class —
//     the stable virtual seam kept for tests, attacks and ad-hoc model
//     variants where dispatch cost does not matter.
#pragma once

#include <concepts>
#include <cstdint>

#include "bpu/types.h"
#include "util/bits.h"

namespace stbpu::bpu {

/// Detects mapping types that declare `kRemapAware = true` — memoized
/// mappings whose outputs are pure between re-keys, letting templated
/// predictors reuse values across the phases of a single access.
template <class Mapping>
concept RemapAwareMapping = requires { requires Mapping::kRemapAware; };

struct BtbIndex;

// ---------------------------------------------------------------------------
// The mapping contract, formalized. A mapping arm registered with the
// devirtualized engine (models/engine.h's RegisteredArms typelist) must
// satisfy MappingCore — the nine index/tag/codec functions of the paper's
// Figure 1 + Table II, all callable on a const object (mappings are pure
// between re-keys; mutable internals like memo-caches must be logically
// const). The three capability concepts below are optional: the engine
// detects them per arm and lights up the corresponding machinery, so a new
// mapping opts in by simply providing the member. Registration
// static_asserts MappingCore for every arm (see engine.h), turning a
// half-implemented mapping into a named compile error instead of an
// overload-resolution maze.
// ---------------------------------------------------------------------------

/// Required: the nine pure mapping functions every predictor structure
/// calls through. Matches the virtual MappingProvider signature set, minus
/// virtuality.
template <class M>
concept MappingCore =
    requires(const M m, std::uint64_t a, unsigned bits, const ExecContext& ctx) {
      { m.btb_mode1(a, ctx) } -> std::convertible_to<BtbIndex>;
      { m.btb_mode2_tag(a, ctx) } -> std::convertible_to<std::uint32_t>;
      { m.pht_index_1level(a, ctx) } -> std::convertible_to<std::uint32_t>;
      { m.pht_index_2level(a, a, ctx) } -> std::convertible_to<std::uint32_t>;
      { m.encode_target(a, ctx) } -> std::convertible_to<std::uint64_t>;
      { m.decode_target(a, a, ctx) } -> std::convertible_to<std::uint64_t>;
      { m.tage_index(a, a, bits, bits, ctx) } -> std::convertible_to<std::uint32_t>;
      { m.tage_tag(a, a, bits, bits, ctx) } -> std::convertible_to<std::uint32_t>;
      { m.perceptron_row(a, bits, ctx) } -> std::convertible_to<std::uint32_t>;
    };

/// Optional capability: the mapping holds invalidatable derived state
/// (e.g. a memo-cache) that the engine empties on context switches —
/// belt-and-braces hygiene, never a correctness requirement (derived state
/// must already be tagged/validated against re-keys).
template <class M>
concept Invalidatable = requires(const M m) { m.invalidate_all(); };

/// The TAGE loop predictor keys its tag through the Rt tag function with a
/// zero history under this pseudo-table number and output width.
inline constexpr unsigned kTageLoopTagTable = 63;
inline constexpr unsigned kTageLoopTagBits = 10;

/// Optional capability: the mapping computes every tagged table's TAGE
/// index and tag for one access in a single batched call
/// (`tage_rt_all`, see core::Remapper::rt_all), plus the loop predictor's
/// tag when `loop_tag_out` is non-null. Outputs equal the per-table
/// tage_index/tage_tag calls; TagePredictorT uses it instead of them.
template <class M>
concept RtBatch = requires(const M m, std::uint64_t a, const std::uint64_t* keys,
                           unsigned bits, std::uint32_t* out, const ExecContext& ctx) {
  m.tage_rt_all(a, keys, keys, bits, bits, bits, out, out, out, ctx);
};

/// Optional capability: the mapping reports per-structure cache statistics
/// (`stats()`), surfaced through models::engine_remap_cache_stats.
template <class M>
concept StatsReporting = requires(const M m) { m.stats(); };

/// Output of function 1 / R1: where a branch lives in the BTB.
///
/// `tag` is 64-bit because the conservative model stores the complete
/// remaining 48-bit address as its tag; narrow providers (baseline 8-bit
/// fold, STBPU R1) must produce already-masked values in the same field —
/// never a narrowed-then-rewidened cast.
struct BtbIndex {
  std::uint32_t set = 0;     ///< 9 bits baseline
  std::uint64_t tag = 0;     ///< 8 bits baseline (full address, conservative model)
  std::uint32_t offset = 0;  ///< 5 bits baseline
  friend constexpr bool operator==(const BtbIndex&, const BtbIndex&) = default;
};

/// Architectural width of the mode-2 (BHB-derived) tag component. Every
/// provider's btb_mode2_tag must fit in this many bits; the predictor masks
/// with it before XOR-combining into BtbIndex::tag so a misbehaving
/// provider cannot corrupt high tag bits (conservative tags are 35 bits).
inline constexpr unsigned kBtbMode2TagBits = 8;

class MappingProvider {
 public:
  virtual ~MappingProvider() = default;

  /// Function 1 / R1 — BTB set/tag/offset from the branch address.
  [[nodiscard]] virtual BtbIndex btb_mode1(std::uint64_t ip,
                                           const ExecContext& ctx) const = 0;

  /// Function 2 / R2 — extra tag from the BHB for mode-2 (indirect) lookups.
  [[nodiscard]] virtual std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                                    const ExecContext& ctx) const = 0;

  /// Function 3 / R3 — PHT 1-level index.
  [[nodiscard]] virtual std::uint32_t pht_index_1level(std::uint64_t ip,
                                                       const ExecContext& ctx) const = 0;

  /// Function 4 / R4 — PHT 2-level (gshare) index from address + GHR.
  [[nodiscard]] virtual std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                                       const ExecContext& ctx) const = 0;

  /// Target store codec (function 5 and STBPU's φ encryption). The baseline
  /// BTB/RSB store 32 bits; decode re-extends using the 16 upper bits of the
  /// branch instruction pointer. STBPU XORs the stored payload with φ both
  /// ways. The conservative model stores the full 48 bits (hence uint64).
  [[nodiscard]] virtual std::uint64_t encode_target(std::uint64_t target,
                                                    const ExecContext& ctx) const = 0;
  [[nodiscard]] virtual std::uint64_t decode_target(std::uint64_t branch_ip,
                                                    std::uint64_t stored,
                                                    const ExecContext& ctx) const = 0;

  /// Rt — TAGE tagged-table index/tag from address + folded history.
  [[nodiscard]] virtual std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                                 unsigned table, unsigned index_bits,
                                                 const ExecContext& ctx) const = 0;
  [[nodiscard]] virtual std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                               unsigned table, unsigned tag_bits,
                                               const ExecContext& ctx) const = 0;

  /// Rp — perceptron row selection.
  [[nodiscard]] virtual std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                                     const ExecContext& ctx) const = 0;
};

/// Legacy (insecure) mapping logic reproducing the baseline model of §II-A:
///  * only the low 30 bits of the 48-bit virtual address are consumed, so
///    addresses equal modulo 2^30 collide fully (same-address-space attacks,
///    transient trojans [78]);
///  * the BTB tag is an 8-bit XOR-fold of bits 14..29, so crafted aliases
///    collide within one address space too (Jump-over-ASLR [19]);
///  * stored targets are truncated to 32 bits and re-extended with the upper
///    16 bits of the *predicting* branch's address (function 5).
///
/// Non-virtual: the templated engine calls these directly so every mapping
/// call inlines into the predictor loops.
class BaselineMappingLogic {
 public:
  static constexpr unsigned kUsedAddressBits = 30;
  static constexpr unsigned kBtbSetBits = 9;     // 512 sets
  static constexpr unsigned kBtbTagBits = 8;
  static constexpr unsigned kBtbOffsetBits = 5;
  static constexpr unsigned kPhtIndexBits = 14;  // 16K entries
  static constexpr unsigned kGhrBits = 18;

  [[nodiscard]] BtbIndex btb_mode1(std::uint64_t ip, const ExecContext&) const {
    BtbIndex out;
    out.offset = static_cast<std::uint32_t>(util::bits(ip, 0, kBtbOffsetBits));
    out.set = static_cast<std::uint32_t>(util::bits(ip, kBtbOffsetBits, kBtbSetBits));
    out.tag = util::fold_xor(util::bits(ip, kBtbOffsetBits + kBtbSetBits,
                                        kUsedAddressBits - kBtbOffsetBits - kBtbSetBits),
                             kBtbTagBits);
    return out;
  }

  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb, const ExecContext&) const {
    return static_cast<std::uint32_t>(util::fold_xor(bhb, kBtbMode2TagBits));
  }

  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip, const ExecContext&) const {
    // XOR-fold of the 30 utilized address bits — deterministic and linear,
    // so an attacker can solve for colliding addresses (BranchScope), but
    // without the naive bits-0..13 systematic aliasing.
    return static_cast<std::uint32_t>(
        util::fold_xor(util::bits(ip, 0, kUsedAddressBits), kPhtIndexBits));
  }

  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const ExecContext& ctx) const {
    // gshare-style: folded address XOR folded 18-bit global history.
    const std::uint64_t hist = util::fold_xor(util::bits(ghr, 0, kGhrBits), kPhtIndexBits);
    return pht_index_1level(ip, ctx) ^ static_cast<std::uint32_t>(hist);
  }

  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target, const ExecContext&) const {
    return util::bits(target, 0, 32);
  }

  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const ExecContext&) const {
    // Function 5: 16 upper bits from the branch IP + 32 stored bits.
    return (branch_ip & 0xFFFF'0000'0000ULL) | (stored & 0xFFFF'FFFFULL);
  }

  [[nodiscard]] std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                         unsigned table, unsigned index_bits,
                                         const ExecContext&) const {
    // TAGE index hash (Seznec-quality mix). Unlike the BTB/PHT truncations
    // above, shipping TAGE designs use strong index hashes; modelling them
    // as weak would flatter STBPU in Figures 4/5. Not security-relevant:
    // the hash is keyless and public.
    std::uint64_t x = ip ^ (folded_hist * 0x9E3779B97F4A7C15ULL) ^
                      (std::uint64_t{table} << 59);
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 32;
    return static_cast<std::uint32_t>(util::bits(x, 0, index_bits));
  }

  [[nodiscard]] std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                       unsigned table, unsigned tag_bits,
                                       const ExecContext&) const {
    std::uint64_t x = (ip * 0xC2B2AE3D27D4EB4FULL) ^ (folded_hist << 1) ^
                      (folded_hist >> 2) ^ (std::uint64_t{table} * 0x9E55ULL);
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(util::bits(x, 0, tag_bits));
  }

  [[nodiscard]] std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                             const ExecContext&) const {
    std::uint64_t x = (ip >> 2) * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(util::bits(x, 0, row_bits));
  }
};

/// Virtual adapter over any non-virtual mapping-logic class: forwards the
/// complete MappingProvider interface to an owned Logic instance. The three
/// concrete adapters (baseline / conservative / STBPU) are one-liners over
/// this template instead of three hand-maintained forwarding blocks.
template <class Logic>
class MappingAdapterT : public MappingProvider {
 public:
  MappingAdapterT() = default;
  explicit MappingAdapterT(Logic logic) : logic_(std::move(logic)) {}

  [[nodiscard]] BtbIndex btb_mode1(std::uint64_t ip, const ExecContext& ctx) const override {
    return logic_.btb_mode1(ip, ctx);
  }
  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                            const ExecContext& ctx) const override {
    return logic_.btb_mode2_tag(bhb, ctx);
  }
  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip,
                                               const ExecContext& ctx) const override {
    return logic_.pht_index_1level(ip, ctx);
  }
  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const ExecContext& ctx) const override {
    return logic_.pht_index_2level(ip, ghr, ctx);
  }
  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const ExecContext& ctx) const override {
    return logic_.encode_target(target, ctx);
  }
  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const ExecContext& ctx) const override {
    return logic_.decode_target(branch_ip, stored, ctx);
  }
  [[nodiscard]] std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                         unsigned table, unsigned index_bits,
                                         const ExecContext& ctx) const override {
    return logic_.tage_index(ip, folded_hist, table, index_bits, ctx);
  }
  [[nodiscard]] std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                       unsigned table, unsigned tag_bits,
                                       const ExecContext& ctx) const override {
    return logic_.tage_tag(ip, folded_hist, table, tag_bits, ctx);
  }
  [[nodiscard]] std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                             const ExecContext& ctx) const override {
    return logic_.perceptron_row(ip, row_bits, ctx);
  }

 protected:
  Logic logic_;
};

/// Virtual adapter over BaselineMappingLogic (API edge; derived classes in
/// the attack/ablation code override individual functions).
class BaselineMapping : public MappingAdapterT<BaselineMappingLogic> {
 public:
  static constexpr unsigned kUsedAddressBits = BaselineMappingLogic::kUsedAddressBits;
  static constexpr unsigned kBtbSetBits = BaselineMappingLogic::kBtbSetBits;
  static constexpr unsigned kBtbTagBits = BaselineMappingLogic::kBtbTagBits;
  static constexpr unsigned kBtbOffsetBits = BaselineMappingLogic::kBtbOffsetBits;
  static constexpr unsigned kPhtIndexBits = BaselineMappingLogic::kPhtIndexBits;
  static constexpr unsigned kGhrBits = BaselineMappingLogic::kGhrBits;
};

}  // namespace stbpu::bpu
