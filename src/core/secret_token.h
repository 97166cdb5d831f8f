// Secret tokens (paper §IV): each software entity requiring isolation gets
// a 64-bit ST split into ψ (keys the remapping functions R1..R4/Rt/Rp) and
// φ (XOR-encrypts targets stored in BTB/RSB). In hardware the ST lives in a
// per-hart privileged register saved/restored by the OS on context and mode
// switches; simulating that save/restore is equivalent to keeping one token
// per entity, which is what STManager does.
//
// Entities: every user process (pid) is its own entity; the kernel is a
// single separate entity even though it shares the user's address space
// (threat model "Kernel/VMM as victim"). The OS may deliberately place
// several pids in one share-group so they use the same ST and retain each
// other's useful history (paper §IV-A, the fork-server example).
#pragma once

#include <cstdint>
#include <vector>

#include "bpu/types.h"
#include "util/rng.h"

namespace stbpu::core {

struct SecretToken {
  std::uint32_t psi = 0;  ///< remap key
  std::uint32_t phi = 0;  ///< target-encryption key
  friend constexpr bool operator==(const SecretToken&, const SecretToken&) = default;
};

class STManager {
 public:
  static constexpr std::uint32_t kMaxPids = 1u << 16;

  explicit STManager(std::uint64_t seed = 0xC0FFEE) : rng_(seed) {
    kernel_ = fresh();
  }

  /// Current token for the entity executing in `ctx` (lazily created).
  [[nodiscard]] const SecretToken& token(const bpu::ExecContext& ctx) {
    if (ctx.kernel) return kernel_;
    return slot(group_of(ctx.pid)).ensure(rng_);
  }

  /// Re-randomize the current entity's ST (fetch from the on-chip PRNG).
  /// Other entities' tokens — and therefore their usable history — are
  /// untouched; this is the key difference from flushing (paper §IV-A).
  void rerandomize(const bpu::ExecContext& ctx) {
    ++rerandomizations_;
    ++mutations_;
    if (ctx.kernel) {
      kernel_ = fresh();
    } else {
      slot(group_of(ctx.pid)).set(fresh());
    }
  }

  /// OS policy: make `pid` share `leader`'s ST group (selective history
  /// sharing for processes running the same program).
  void share(std::uint16_t pid, std::uint16_t leader) {
    ++mutations_;
    groups_.resize(std::max<std::size_t>(groups_.size(),
                                         std::max(pid, leader) + std::size_t{1}),
                   kNoGroup);
    groups_[pid] = group_of(leader);
  }

  /// OS privileged write of an explicit token (tests / reproducibility).
  void set_token(const bpu::ExecContext& ctx, SecretToken t) {
    ++mutations_;
    if (ctx.kernel) {
      kernel_ = t;
    } else {
      slot(group_of(ctx.pid)).set(t);
    }
  }

  /// OS slot recycling: the entity behind `ctx` is gone, so invalidate its
  /// slot. The next token() for this pid lazily draws a *fresh* ST — a
  /// recycled pid can never silently serve the previous entity's token
  /// (which would hand its successor the victim's usable history, the exact
  /// leak STBPU exists to close). Kernel entity is never recycled (no-op).
  void retire(const bpu::ExecContext& ctx) {
    if (ctx.kernel) return;
    const std::uint16_t g = group_of(ctx.pid);
    if (g < slots_.size() && slots_[g].valid) {
      slots_[g].valid = false;
      ++mutations_;  // memo-caches must drop ψ-derived values for this slot
    }
  }

  /// True when `ctx`'s entity already holds a token. Unlike token() this
  /// never creates one — callers that must not perturb the lazy PRNG draw
  /// order (the tenant service's save-on-recycle) probe with this first.
  [[nodiscard]] bool has_token(const bpu::ExecContext& ctx) const {
    if (ctx.kernel) return true;
    const std::uint16_t g = group_of(ctx.pid);
    return g < slots_.size() && slots_[g].valid;
  }

  /// Live (token-holding) user slots — the tenant layer's exhaustion
  /// accounting against kMaxPids.
  [[nodiscard]] std::size_t valid_slots() const noexcept {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.valid ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::uint64_t rerandomizations() const noexcept {
    return rerandomizations_;
  }

  /// Bumped on every externally visible token change (re-randomization,
  /// explicit write, share-group edit) — the remap memo-cache watches this
  /// to know when memoized ψ-derived values may have gone stale.
  [[nodiscard]] std::uint64_t mutations() const noexcept { return mutations_; }

 private:
  static constexpr std::uint16_t kNoGroup = 0xFFFF;

  struct Slot {
    SecretToken tok{};
    bool valid = false;
    const SecretToken& ensure(util::Xoshiro256& rng) {
      if (!valid) {
        const std::uint64_t r = rng();
        tok = {static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(r >> 32)};
        valid = true;
      }
      return tok;
    }
    void set(SecretToken t) {
      tok = t;
      valid = true;
    }
  };

  [[nodiscard]] SecretToken fresh() {
    const std::uint64_t r = rng_();
    return {static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(r >> 32)};
  }

  [[nodiscard]] std::uint16_t group_of(std::uint16_t pid) const {
    return (pid < groups_.size() && groups_[pid] != kNoGroup) ? groups_[pid] : pid;
  }

  Slot& slot(std::uint16_t group) {
    if (group >= slots_.size()) slots_.resize(std::size_t{group} + 1);
    return slots_[group];
  }

  util::Xoshiro256 rng_;
  SecretToken kernel_{};
  std::vector<Slot> slots_;
  std::vector<std::uint16_t> groups_;
  std::uint64_t rerandomizations_ = 0;
  std::uint64_t mutations_ = 0;
};

}  // namespace stbpu::core
