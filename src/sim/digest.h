// Order-sensitive digests of simulated results. A run's statistics are
// collected as a sequence of 64-bit words (doubles by bit pattern) and
// hashed once with net::fnv1a64, so two runs agree on the digest exactly
// when they agree on every counter, in the same order. The golden-digest test table pins the predictor engine's
// behaviour with these values.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "net/frame.h"
#include "sim/ooo.h"
#include "sim/stats.h"

namespace stbpu::sim {

class Digest {
 public:
  void add(std::uint64_t v) { words_.push_back(v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t value() const {
    return net::fnv1a64(words_.data(), words_.size() * sizeof(std::uint64_t));
  }

 private:
  std::vector<std::uint64_t> words_;
};

inline void digest(Digest& d, const BranchStats& s) {
  for (const std::uint64_t v :
       {s.branches, s.conditionals, s.direction_correct, s.needs_target, s.target_correct,
        s.oae_correct, s.mispredictions, s.btb_evictions, s.rsb_underflows,
        s.context_switches, s.mode_switches}) {
    d.add(v);
  }
}

/// Per thread: instructions, cycles, branch statistics and stall
/// attribution; then the cache hierarchy's hit/miss counters (demand and
/// prefetch probes alike, see CacheHierarchyCounters).
inline void digest(Digest& d, const OooResult& r) {
  d.add(std::uint64_t{r.threads});
  for (unsigned t = 0; t < r.threads; ++t) {
    d.add(r.instructions[t]);
    d.add(r.cycles[t]);
    digest(d, r.branch_stats[t]);
    const OooThreadStalls& s = r.stalls[t];
    for (const double v : {s.fetch_bandwidth, s.redirect, s.rob, s.iq, s.lq, s.sq}) d.add(v);
  }
  const CacheHierarchyCounters& c = r.cache;
  for (const std::uint64_t v :
       {c.l1d_hits, c.l1d_misses, c.l2_hits, c.l2_misses, c.llc_hits, c.llc_misses}) {
    d.add(v);
  }
}

template <class Result>
[[nodiscard]] std::uint64_t digest_of(const Result& r) {
  Digest d;
  digest(d, r);
  return d.value();
}

}  // namespace stbpu::sim
