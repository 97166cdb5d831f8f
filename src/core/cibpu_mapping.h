// CIBPU-style conflict-invisible mapping (rival arm; arxiv 2501.10983).
//
// Like STBPU, every index/tag is computed through the keyed remapping
// functions under a per-entity secret ψ, re-keyed by the same event
// monitor — so CIBPU runs on the same memo-cached keyed core
// (core/remap_cache.h), with CibpuPolicy as its arm policy. The CIBPU twist
// is *conflict invisibility*: every BTB tag is widened with a
// per-security-domain fingerprint, so an entry installed by one domain can
// never produce a tag match for another — cross-domain BTB conflicts
// manifest only as capacity misses, never as reuse hits, which removes the
// signal the reuse-style attacks (Table I "reuse" rows) sample.
// What CIBPU does NOT do is encrypt payloads: stored targets are plaintext
// (truncate + function-5 re-extension, exactly the baseline codec), so any
// collision an attacker *does* force injects a usable target — the honest
// weakness the three-way attack scenarios measure against STBPU's φ codec.
#pragma once

#include <cstdint>

#include "bpu/types.h"
#include "core/remap.h"
#include "core/remap_cache.h"

namespace stbpu::core {

struct CibpuPolicy {
  /// Width of the per-domain tag fingerprint. Appended above the 8 keyed
  /// tag bits: total tag width 8 + 17 = 25 bits, well inside the BTB's
  /// 36-bit packed tag field (see bpu/btb.h) and clear of the low
  /// kBtbMode2TagBits the mode-2 path XORs into, so the fingerprint
  /// survives BHB-assisted lookups too.
  static constexpr unsigned kDomainFingerprintBits = 17;

  /// Fingerprint of the security domain: the identity on (pid, privilege).
  /// Keyless and public by design — invisibility comes from the *width*,
  /// not from secrecy. The identity (rather than a hash truncated below 17
  /// bits) makes it injective over the entire domain space, so cross-domain
  /// tag matches are structurally impossible, not merely improbable.
  [[nodiscard]] static constexpr std::uint32_t domain_fingerprint(
      const bpu::ExecContext& ctx) noexcept {
    return (static_cast<std::uint32_t>(ctx.pid) << 1) | (ctx.kernel ? 1 : 0);
  }

  /// Widens the keyed R1 tag with the fingerprint. Taken from the current
  /// context after the memo lookup: pids in one share group hold the same
  /// ψ and so hit the same R1 entry, yet their tags still differ.
  [[nodiscard]] static constexpr std::uint64_t tag_domain(
      const bpu::ExecContext& ctx) noexcept {
    return std::uint64_t{domain_fingerprint(ctx)} << Remapper::kBtbTagBits;
  }

  /// Plaintext payloads: CIBPU isolates via indexing only.
  static constexpr bool kEncryptTargets = false;
};

/// The engine's CIBPU mapping.
using CachedCibpuMapping = CachedKeyedMapping<CibpuPolicy>;

}  // namespace stbpu::core
