// STBPU mapping — glues the secret-token registers to the keyed remapping
// functions and the φ target codec, implementing the Figure 1 components
// highlighted as STBPU (remapping ψ, encryption φ). Swapping this mapping
// in place of BaselineMappingLogic is the *entire* integration surface
// with the predictors, matching the paper's claim that STBPU does not
// interfere with the prediction mechanisms themselves.
//
// The engine's STBPU arm uses the memo-caching CachedStbpuMapping
// (core/remap_cache.h), which computes the same values; this uncached
// logic serves the ablation and scaled attack targets.
#pragma once

#include "bpu/mapping.h"
#include "core/remap.h"
#include "core/secret_token.h"
#include "util/bits.h"

namespace stbpu::core {

class StbpuMappingLogic {
 public:
  explicit StbpuMappingLogic(STManager* stm) : stm_(stm) {}

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip,
                                        const bpu::ExecContext& ctx) const {
    return Remapper::r1(stm_->token(ctx).psi, ip);
  }

  [[nodiscard]] std::uint32_t btb_mode2_tag(std::uint64_t bhb,
                                            const bpu::ExecContext& ctx) const {
    return Remapper::r2(stm_->token(ctx).psi, bhb);
  }

  [[nodiscard]] std::uint32_t pht_index_1level(std::uint64_t ip,
                                               const bpu::ExecContext& ctx) const {
    return Remapper::r3(stm_->token(ctx).psi, ip);
  }

  [[nodiscard]] std::uint32_t pht_index_2level(std::uint64_t ip, std::uint64_t ghr,
                                               const bpu::ExecContext& ctx) const {
    return Remapper::r4(stm_->token(ctx).psi, ip, ghr);
  }

  [[nodiscard]] std::uint64_t encode_target(std::uint64_t target,
                                            const bpu::ExecContext& ctx) const {
    // Store 32 bits XOR-encrypted with the entity's φ (paper §IV-B).
    return util::bits(target, 0, 32) ^ stm_->token(ctx).phi;
  }

  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const bpu::ExecContext& ctx) const {
    // Modified function 5: decrypt with the *current* entity's φ, then
    // re-extend with the upper IP bits. A payload written under another φ
    // decodes to a uniformly random 32-bit offset — malicious speculative
    // execution stalls at a garbage address.
    const std::uint64_t lo = (stored ^ stm_->token(ctx).phi) & 0xFFFF'FFFFULL;
    return (branch_ip & 0xFFFF'0000'0000ULL) | lo;
  }

  [[nodiscard]] std::uint32_t tage_index(std::uint64_t ip, std::uint64_t folded_hist,
                                         unsigned table, unsigned index_bits,
                                         const bpu::ExecContext& ctx) const {
    return Remapper::rt_index(stm_->token(ctx).psi, ip, folded_hist, table, index_bits);
  }

  [[nodiscard]] std::uint32_t tage_tag(std::uint64_t ip, std::uint64_t folded_hist,
                                       unsigned table, unsigned tag_bits,
                                       const bpu::ExecContext& ctx) const {
    return Remapper::rt_tag(stm_->token(ctx).psi, ip, folded_hist, table, tag_bits);
  }

  [[nodiscard]] std::uint32_t perceptron_row(std::uint64_t ip, unsigned row_bits,
                                             const bpu::ExecContext& ctx) const {
    return Remapper::rp(stm_->token(ctx).psi, ip, row_bits);
  }

 private:
  STManager* stm_;
};

}  // namespace stbpu::core
