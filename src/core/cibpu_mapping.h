// CIBPU-style conflict-invisible mapping (rival arm; arxiv 2501.10983).
//
// Like STBPU, every index/tag is computed through the keyed remapping
// functions under a per-entity secret ψ, re-keyed by the same event
// monitor. The CIBPU twist is *conflict invisibility*: every BTB tag is
// widened with a per-security-domain fingerprint, so an entry installed by
// one domain can never produce a tag match for another — cross-domain BTB
// conflicts manifest only as capacity misses, never as reuse hits, which
// removes the signal the reuse-style attacks (Table I "reuse" rows) sample.
// What CIBPU does NOT do is encrypt payloads: stored targets are plaintext
// (truncate + function-5 re-extension, exactly the baseline codec), so any
// collision an attacker *does* force injects a usable target — the honest
// weakness the three-way attack scenarios measure against STBPU's φ codec.
#pragma once

#include "bpu/mapping.h"
#include "core/remap.h"
#include "core/secret_token.h"
#include "util/bits.h"

namespace stbpu::core {

class CibpuMappingLogic {
 public:
  /// Width of the per-domain tag fingerprint. Appended above the 8 keyed
  /// tag bits: total tag width 8 + 17 = 25 bits, well inside the BTB's
  /// 36-bit packed tag field (see bpu/btb.h) and clear of the low
  /// kBtbMode2TagBits the mode-2 path XORs into.
  static constexpr unsigned kDomainFingerprintBits = 17;

  explicit CibpuMappingLogic(STManager* stm) : stm_(stm) {}

  /// Fingerprint of the security domain: the identity on (pid, privilege).
  /// Keyless and public by design — invisibility comes from the *width*,
  /// not from secrecy. The identity (rather than a hash truncated below 17
  /// bits) makes it injective over the entire domain space, so cross-domain
  /// tag matches are structurally impossible, not merely improbable.
  [[nodiscard]] static constexpr std::uint32_t domain_fingerprint(
      const bpu::ExecContext& ctx) noexcept {
    return (static_cast<std::uint32_t>(ctx.pid) << 1) | (ctx.kernel ? 1 : 0);
  }

  [[nodiscard]] bpu::BtbIndex btb_mode1(std::uint64_t ip,
                                        const bpu::ExecContext& ctx) const {
    bpu::BtbIndex out = Remapper::r1(stm_->token(ctx).psi, ip);
    // Widen the keyed 8-bit tag with the domain fingerprint. The mode-2
    // combine only touches the low kBtbMode2TagBits, so the fingerprint
    // survives BHB-assisted lookups too.
    out.tag |= std::uint64_t{domain_fingerprint(ctx)} << Remapper::kBtbTagBits;
    return out;
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
                                            const bpu::ExecContext&) const {
    // Plaintext payloads: CIBPU isolates via indexing only.
    return util::bits(target, 0, 32);
  }

  [[nodiscard]] std::uint64_t decode_target(std::uint64_t branch_ip, std::uint64_t stored,
                                            const bpu::ExecContext&) const {
    return (branch_ip & 0xFFFF'0000'0000ULL) | (stored & 0xFFFF'FFFFULL);
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
