// CachedCibpuMapping: conflict-invisible keyed indexing on the memo-cached
// keyed core. The defining property is that no BTB entry installed by one
// security domain can ever produce a tag match for another — memo hits
// included — plus the arm's honest weakness, plaintext payloads.
#include "core/cibpu_mapping.h"

#include <gtest/gtest.h>

#include <vector>

#include "bpu/types.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

const bpu::ExecContext kUserA{.pid = 1, .hart = 0, .kernel = false};
const bpu::ExecContext kUserB{.pid = 2, .hart = 0, .kernel = false};
const bpu::ExecContext kKernelA{.pid = 1, .hart = 0, .kernel = true};

class CibpuMappingTest : public ::testing::Test {
 protected:
  CibpuMappingTest() : stm_(1234), map_(&stm_) {}
  STManager stm_;
  CachedCibpuMapping map_;
};

TEST_F(CibpuMappingTest, FingerprintInjectiveOverAllDomains) {
  // The fingerprint is the identity on (pid, privilege): every one of the
  // 2^17 domains gets a distinct value, so the "structurally impossible"
  // claim is exact, not probabilistic.
  std::vector<bool> seen(1u << CibpuPolicy::kDomainFingerprintBits, false);
  for (std::uint32_t pid = 0; pid < STManager::kMaxPids; ++pid) {
    for (const bool kernel : {false, true}) {
      const bpu::ExecContext ctx{.pid = static_cast<std::uint16_t>(pid),
                                 .hart = 0,
                                 .kernel = kernel};
      const std::uint32_t fp = CibpuPolicy::domain_fingerprint(ctx);
      ASSERT_LT(fp, seen.size());
      ASSERT_FALSE(seen[fp]) << "fingerprint collision at pid " << pid;
      seen[fp] = true;
    }
  }
}

TEST_F(CibpuMappingTest, CrossDomainTagsNeverMatch) {
  // Conflict invisibility: for ANY pair of domains and ANY address pair,
  // the widened tags differ (distinct fingerprints occupy disjoint values
  // in the bits above the keyed 8). Same-address probes shown here; the
  // fingerprint bits make the full cross-product case equivalent.
  util::Xoshiro256 rng(7);
  for (unsigned i = 0; i < 2000; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const auto a = map_.btb_mode1(ip, kUserA);
    const auto b = map_.btb_mode1(ip, kUserB);
    const auto k = map_.btb_mode1(ip, kKernelA);
    ASSERT_NE(a.tag, b.tag);
    ASSERT_NE(a.tag, k.tag);
    ASSERT_NE(b.tag, k.tag);
    // The fingerprint rides above the keyed bits, untouched by them.
    ASSERT_EQ(a.tag >> Remapper::kBtbTagBits,
              CibpuPolicy::domain_fingerprint(kUserA));
  }
}

TEST_F(CibpuMappingTest, ReKeyChangesIndexesForThatDomainOnly) {
  util::Xoshiro256 rng(8);
  std::vector<std::uint64_t> ips;
  for (unsigned i = 0; i < 500; ++i) ips.push_back(rng() & bpu::kVirtualAddressMask);
  std::vector<bpu::BtbIndex> before_a, before_b;
  for (const auto ip : ips) {
    before_a.push_back(map_.btb_mode1(ip, kUserA));
    before_b.push_back(map_.btb_mode1(ip, kUserB));
  }
  stm_.rerandomize(kUserA);
  unsigned moved = 0;
  for (std::size_t i = 0; i < ips.size(); ++i) {
    moved += !(map_.btb_mode1(ips[i], kUserA) == before_a[i]);
    ASSERT_EQ(map_.btb_mode1(ips[i], kUserB), before_b[i])
        << "re-keying A must not disturb B";
  }
  EXPECT_GT(moved, ips.size() * 9 / 10);
}

TEST_F(CibpuMappingTest, ConflictInvisibleOnMemoHit) {
  // Two domains under one ψ look up the same ip: the second lookup is
  // served from the first one's R1 entry, yet its tag must carry its own
  // fingerprint — the fingerprint is applied after the memo lookup, never
  // stored in the entry.
  const auto check = [&](const bpu::ExecContext& first, const bpu::ExecContext& second,
                         std::uint64_t ip) {
    ASSERT_EQ(stm_.token(first).psi, stm_.token(second).psi);
    const auto a = map_.btb_mode1(ip, first);
    const auto r1_hits = map_.stats().fn_hits[RemapCacheStats::kR1];
    const auto b = map_.btb_mode1(ip, second);
    EXPECT_EQ(map_.stats().fn_hits[RemapCacheStats::kR1], r1_hits + 1)
        << "the same ψ must be served from the R1 entry";
    EXPECT_EQ(a.set, b.set);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.tag & 0xFFu, b.tag & 0xFFu) << "keyed tag bits come from the shared entry";
    EXPECT_NE(a.tag, b.tag);
    EXPECT_EQ(a.tag >> Remapper::kBtbTagBits, CibpuPolicy::domain_fingerprint(first));
    EXPECT_EQ(b.tag >> Remapper::kBtbTagBits, CibpuPolicy::domain_fingerprint(second));
  };
  // Two pids in one share group.
  stm_.share(kUserB.pid, kUserA.pid);
  check(kUserA, kUserB, 0x0000'2345'6780ULL);
  // Kernel vs user on one pid, the kernel given the user's token.
  stm_.set_token(kKernelA, stm_.token(kUserA));
  check(kUserA, kKernelA, 0x0000'7654'3210ULL);
}

TEST_F(CibpuMappingTest, PlaintextCodecIsTheHonestWeakness) {
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  const std::uint64_t target = 0x0000'2399'1234ULL;
  const std::uint64_t stored = map_.encode_target(target, kUserA);
  // No encryption: the stored payload IS the low target bits, and any
  // domain decodes it to a usable address (unlike STBPU's φ codec).
  EXPECT_EQ(stored, target & 0xFFFF'FFFFULL);
  EXPECT_EQ(map_.decode_target(branch, stored, kUserA), target);
  EXPECT_EQ(map_.decode_target(branch, stored, kUserB), target);
}

TEST_F(CibpuMappingTest, DeterministicPerDomain) {
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  EXPECT_EQ(map_.btb_mode1(ip, kUserA), map_.btb_mode1(ip, kUserA));
  EXPECT_EQ(map_.pht_index_1level(ip, kUserA), map_.pht_index_1level(ip, kUserA));
  EXPECT_EQ(map_.pht_index_2level(ip, 0x3F, kUserA),
            map_.pht_index_2level(ip, 0x3F, kUserA));
  EXPECT_EQ(map_.tage_index(ip, 0x77, 2, 10, kUserA),
            map_.tage_index(ip, 0x77, 2, 10, kUserA));
  EXPECT_EQ(map_.perceptron_row(ip, 9, kUserA), map_.perceptron_row(ip, 9, kUserA));
}

}  // namespace
}  // namespace stbpu::core
