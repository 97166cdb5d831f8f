// Lightweight XOR isolation mapping (rival arm; Zhao et al.,
// arxiv 2005.08183 — "Lightweight Isolation of Branch Predictors").
//
// The design goal is hardware lightness: instead of STBPU's 3-round keyed
// S/P networks on every lookup, each structure's index is the *baseline*
// deterministic index XORed with a per-security-domain constant, and every
// stored payload is XOR-encrypted/decrypted with the domain's φ (the same
// entry-encryption idea STBPU adopts for its target codec). The per-domain
// constants derive from the entity's secret token, so the existing
// monitor/re-randomization plumbing re-keys this arm exactly like STBPU.
//
// The XOR linearity is the scheme's honest weakness and is preserved
// deliberately: for two addresses a, b in one domain,
//   index(a) ^ index(b) == base_index(a) ^ base_index(b),
// i.e. the attacker-controlled collision structure of the baseline mapping
// survives inside each domain (and across domains up to one constant
// offset), which is exactly what the three-way attack scenarios measure
// against STBPU's nonlinear keyed remapping.
#pragma once

#include "bpu/mapping.h"
#include "core/secret_token.h"
#include "util/bits.h"

namespace stbpu::core {

class XorIsolationMappingLogic {
 public:
  explicit XorIsolationMappingLogic(STManager* stm) : stm_(stm) {}

  /// Per-domain mask material: a cheap splitmix64-style spread of the
  /// entity's ψ with a per-structure salt. Deliberately NOT the 3-round
  /// mix — one multiply + two shifts models the "a handful of XOR gates
  /// and a small keyed constant per structure" hardware budget of the
  /// scheme. The salt decorrelates the masks of different structures so a
  /// PHT observation does not directly reveal the BTB mask.
  [[nodiscard]] static constexpr std::uint64_t spread(std::uint32_t psi,
                                                      std::uint64_t salt) noexcept {
    std::uint64_t x = (std::uint64_t{psi} << 32 | psi) ^ salt;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip,
                                        const bpu::ExecContext& ctx) const {
    const std::uint64_t m = spread(stm_->token(ctx).psi, kSaltBtb);
    bpu::BtbIndex out = base_.btb_mode1(ip, ctx);
    out.set ^= static_cast<std::uint32_t>(
        util::bits(m, 0, bpu::BaselineMappingLogic::kBtbSetBits));
    out.tag ^= util::bits(m, 16, bpu::BaselineMappingLogic::kBtbTagBits);
    return out;
  }

  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                            const bpu::ExecContext& ctx) const {
    const std::uint64_t m = spread(stm_->token(ctx).psi, kSaltBhb);
    return base_.btb_mode2_tag(bhb, ctx) ^
           static_cast<std::uint32_t>(util::bits(m, 0, bpu::kBtbMode2TagBits));
  }

  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip,
                                               const bpu::ExecContext& ctx) const {
    return base_.pht_index_1level(ip, ctx) ^ pht_mask(ctx);
  }

  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const bpu::ExecContext& ctx) const {
    return base_.pht_index_2level(ip, ghr, ctx) ^ pht_mask(ctx);
  }

  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const bpu::ExecContext& ctx) const {
    // Entry encryption: store 32 bits XORed with the domain's φ.
    return util::bits(target, 0, 32) ^ stm_->token(ctx).phi;
  }

  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const bpu::ExecContext& ctx) const {
    // A payload written under another domain's φ decodes to a uniformly
    // random offset — the entry-encryption half of the isolation.
    const std::uint64_t lo = (stored ^ stm_->token(ctx).phi) & 0xFFFF'FFFFULL;
    return (branch_ip & 0xFFFF'0000'0000ULL) | lo;
  }

  [[nodiscard]] std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                         unsigned table, unsigned index_bits,
                                         const bpu::ExecContext& ctx) const {
    const std::uint64_t m =
        spread(stm_->token(ctx).psi, kSaltTage + table);
    return base_.tage_index(ip, folded_hist, table, index_bits, ctx) ^
           static_cast<std::uint32_t>(util::bits(m, 0, index_bits));
  }

  [[nodiscard]] std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                       unsigned table, unsigned tag_bits,
                                       const bpu::ExecContext& ctx) const {
    const std::uint64_t m =
        spread(stm_->token(ctx).psi, kSaltTage + table);
    return base_.tage_tag(ip, folded_hist, table, tag_bits, ctx) ^
           static_cast<std::uint32_t>(util::bits(m, 24, tag_bits));
  }

  [[nodiscard]] std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                             const bpu::ExecContext& ctx) const {
    const std::uint64_t m = spread(stm_->token(ctx).psi, kSaltPerceptron);
    return base_.perceptron_row(ip, row_bits, ctx) ^
           static_cast<std::uint32_t>(util::bits(m, 0, row_bits));
  }

 private:
  static constexpr std::uint64_t kSaltBtb = 0x42'5442;         // "BTB"
  static constexpr std::uint64_t kSaltBhb = 0x42'4842;         // "BHB"
  static constexpr std::uint64_t kSaltPht = 0x50'4854;         // "PHT"
  static constexpr std::uint64_t kSaltPerceptron = 0x50'4350;  // "PCP"
  static constexpr std::uint64_t kSaltTage = 0x54'4147'0000ULL;  // "TAG" + table

  [[nodiscard]] std::uint32_t pht_mask(const bpu::ExecContext& ctx) const {
    const std::uint64_t m = spread(stm_->token(ctx).psi, kSaltPht);
    return static_cast<std::uint32_t>(
        util::bits(m, 0, bpu::BaselineMappingLogic::kPhtIndexBits));
  }

  bpu::BaselineMappingLogic base_;
  STManager* stm_;
};

}  // namespace stbpu::core
