// XorIsolationMappingLogic: lightweight per-domain XOR index masking + φ entry
// encryption. Verifies the isolation half (cross-domain decode garbles,
// re-key moves the masks) AND the deliberate weakness (XOR linearity: the
// baseline's collision structure survives inside a domain).
#include "core/xor_isolation_mapping.h"

#include <gtest/gtest.h>

#include <vector>

#include "bpu/types.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

const bpu::ExecContext kUserA{.pid = 1, .hart = 0, .kernel = false};
const bpu::ExecContext kUserB{.pid = 2, .hart = 0, .kernel = false};

class XorIsolationMappingTest : public ::testing::Test {
 protected:
  XorIsolationMappingTest() : stm_(1234), map_(&stm_) {}
  STManager stm_;
  XorIsolationMappingLogic map_;
  bpu::BaselineMappingLogic base_;
};

TEST_F(XorIsolationMappingTest, XorLinearityPreservesBaselineCollisions) {
  // The documented weakness: within one domain the mask cancels, so
  //   index(a) ^ index(b) == base_index(a) ^ base_index(b)
  // — attacker-controlled collision structure survives the "defense".
  util::Xoshiro256 rng(5);
  for (unsigned i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() & bpu::kVirtualAddressMask;
    const std::uint64_t b = rng() & bpu::kVirtualAddressMask;
    EXPECT_EQ(map_.pht_index_1level(a, kUserA) ^ map_.pht_index_1level(b, kUserA),
              base_.pht_index_1level(a, kUserA) ^ base_.pht_index_1level(b, kUserA));
    EXPECT_EQ(map_.btb_mode1(a, kUserA).set ^ map_.btb_mode1(b, kUserA).set,
              base_.btb_mode1(a, kUserA).set ^ base_.btb_mode1(b, kUserA).set);
    EXPECT_EQ(map_.perceptron_row(a, 9, kUserA) ^ map_.perceptron_row(b, 9, kUserA),
              base_.perceptron_row(a, 9, kUserA) ^ base_.perceptron_row(b, 9, kUserA));
  }
}

TEST_F(XorIsolationMappingTest, DomainsSeeDifferentIndexes) {
  util::Xoshiro256 rng(6);
  unsigned same_pht = 0, same_set = 0;
  const unsigned n = 2000;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    same_pht += map_.pht_index_1level(ip, kUserA) == map_.pht_index_1level(ip, kUserB);
    same_set += map_.btb_mode1(ip, kUserA).set == map_.btb_mode1(ip, kUserB).set;
  }
  // Distinct domain masks shift every index by a nonzero constant, so
  // same-address agreement is all-or-nothing per structure: with these
  // tokens, nothing agrees.
  EXPECT_EQ(same_pht, 0u);
  EXPECT_EQ(same_set, 0u);
}

TEST_F(XorIsolationMappingTest, PhiCodecRoundTripsWithinDomain) {
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  const std::uint64_t target = 0x0000'2399'1234ULL;
  const std::uint64_t stored = map_.encode_target(target, kUserA);
  EXPECT_NE(stored, target & 0xFFFF'FFFFULL) << "payload must be encrypted at rest";
  EXPECT_EQ(map_.decode_target(branch, stored, kUserA), target);
}

TEST_F(XorIsolationMappingTest, CrossDomainDecodeGarblesTarget) {
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  const std::uint64_t target = 0x0000'2399'1234ULL;
  const std::uint64_t stored = map_.encode_target(target, kUserA);
  // A payload written under A's φ and read under B's decodes to garbage —
  // the entry-encryption half of the isolation.
  EXPECT_NE(map_.decode_target(branch, stored, kUserB), target);
}

TEST_F(XorIsolationMappingTest, ReKeyMovesMasksForThatDomainOnly) {
  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> ips;
  for (unsigned i = 0; i < 500; ++i) ips.push_back(rng() & bpu::kVirtualAddressMask);
  std::vector<std::uint32_t> before_a, before_b;
  for (const auto ip : ips) {
    before_a.push_back(map_.pht_index_1level(ip, kUserA));
    before_b.push_back(map_.pht_index_1level(ip, kUserB));
  }
  stm_.rerandomize(kUserA);
  unsigned moved = 0;
  for (std::size_t i = 0; i < ips.size(); ++i) {
    moved += map_.pht_index_1level(ips[i], kUserA) != before_a[i];
    ASSERT_EQ(map_.pht_index_1level(ips[i], kUserB), before_b[i])
        << "re-keying A must not disturb B";
  }
  // A fresh ψ yields a fresh mask; all indexes shift by the same nonzero
  // constant (XOR of old and new mask).
  EXPECT_EQ(moved, ips.size());
}

TEST_F(XorIsolationMappingTest, StructureSaltsDecorrelateMasks) {
  // Observing the PHT mask must not reveal the perceptron or TAGE masks:
  // the XOR offsets baseline→masked differ across structures.
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  const std::uint32_t pht_off =
      map_.pht_index_1level(ip, kUserA) ^ base_.pht_index_1level(ip, kUserA);
  const std::uint32_t row_off =
      map_.perceptron_row(ip, 14, kUserA) ^ base_.perceptron_row(ip, 14, kUserA);
  const std::uint32_t tage_off = map_.tage_index(ip, 0x77, 1, 14, kUserA) ^
                                 base_.tage_index(ip, 0x77, 1, 14, kUserA);
  EXPECT_NE(pht_off, row_off);
  EXPECT_NE(pht_off, tage_off);
}

}  // namespace
}  // namespace stbpu::core
