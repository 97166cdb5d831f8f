// StbpuMappingLogic: the integration of tokens + remaps + φ codec. The isolation
// properties here are the paper's core security argument.
#include "core/stbpu_mapping.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace stbpu::core {
namespace {

const bpu::ExecContext kUserA{.pid = 1, .hart = 0, .kernel = false};
const bpu::ExecContext kUserB{.pid = 2, .hart = 0, .kernel = false};
const bpu::ExecContext kKernel{.pid = 1, .hart = 0, .kernel = true};

class StbpuMappingTest : public ::testing::Test {
 protected:
  StbpuMappingTest() : stm_(1234), map_(&stm_) {}
  STManager stm_;
  StbpuMappingLogic map_;
};

TEST_F(StbpuMappingTest, StablePerEntity) {
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  EXPECT_EQ(map_.btb_mode1(ip, kUserA), map_.btb_mode1(ip, kUserA));
  EXPECT_EQ(map_.pht_index_1level(ip, kUserA), map_.pht_index_1level(ip, kUserA));
}

TEST_F(StbpuMappingTest, EntitiesMapDifferently) {
  // The defining property: no deterministic cross-entity collisions.
  util::Xoshiro256 rng(9);
  unsigned same_set = 0, same_full = 0, same_pht = 0;
  const unsigned n = 2000;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    const auto a = map_.btb_mode1(ip, kUserA);
    const auto b = map_.btb_mode1(ip, kUserB);
    same_set += a.set == b.set;
    same_full += a == b;
    same_pht += map_.pht_index_1level(ip, kUserA) == map_.pht_index_1level(ip, kUserB);
  }
  EXPECT_NEAR(static_cast<double>(same_set) / n, 1.0 / 512, 0.01)
      << "set agreement at chance rate only";
  EXPECT_EQ(same_full, 0u) << "full (set,tag,offset) collisions ~ 2^-22";
  EXPECT_LT(same_pht, 5u);
}

TEST_F(StbpuMappingTest, KernelIsolatedFromItsOwnProcess) {
  util::Xoshiro256 rng(10);
  unsigned same = 0;
  const unsigned n = 2000;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t ip = rng() & bpu::kVirtualAddressMask;
    same += map_.btb_mode1(ip, kUserA) == map_.btb_mode1(ip, kKernel);
  }
  EXPECT_EQ(same, 0u) << "user/kernel share the address space but not the ST";
}

TEST_F(StbpuMappingTest, CodecRoundTripsWithinEntity) {
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  for (std::uint64_t target : {0x0000'2345'9000ULL, 0x0000'2300'0004ULL}) {
    const auto enc = map_.encode_target(target, kUserA);
    EXPECT_EQ(map_.decode_target(branch, enc, kUserA), target);
  }
}

TEST_F(StbpuMappingTest, StoredTargetsAreEncrypted) {
  const std::uint64_t target = 0x0000'2345'9000ULL;
  const auto enc = map_.encode_target(target, kUserA);
  EXPECT_NE(enc, target & 0xFFFF'FFFFULL) << "φ must actually encrypt";
}

TEST_F(StbpuMappingTest, CrossEntityDecodeYieldsGarbage) {
  // The Spectre v2 countermeasure: a payload stored under A's φ decodes to
  // a useless address under B's φ.
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  const std::uint64_t target = 0x0000'2345'9000ULL;
  const auto enc = map_.encode_target(target, kUserA);
  const auto leaked = map_.decode_target(branch, enc, kUserB);
  EXPECT_NE(leaked, target);
  // The garbage is exactly phi_a ^ phi_b off — uniformly random to B.
  const std::uint32_t expected_xor =
      stm_.token(kUserA).phi ^ stm_.token(kUserB).phi;
  EXPECT_EQ((leaked ^ target) & 0xFFFF'FFFFULL, expected_xor);
}

TEST_F(StbpuMappingTest, RerandomizationInvalidatesMapping) {
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  const auto before = map_.btb_mode1(ip, kUserA);
  const auto pht_before = map_.pht_index_1level(ip, kUserA);
  stm_.rerandomize(kUserA);
  EXPECT_NE(map_.btb_mode1(ip, kUserA), before)
      << "old entries become unreachable after ST rotation";
  EXPECT_NE(map_.pht_index_1level(ip, kUserA), pht_before);
}

TEST_F(StbpuMappingTest, RerandomizationPreservesOtherEntities) {
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  const auto b_before = map_.btb_mode1(ip, kUserB);
  stm_.rerandomize(kUserA);
  EXPECT_EQ(map_.btb_mode1(ip, kUserB), b_before)
      << "the key difference from flushing: others keep their history";
}

TEST_F(StbpuMappingTest, SharedGroupMapsIdentically) {
  stm_.share(/*pid=*/7, /*leader=*/1);
  const bpu::ExecContext worker{.pid = 7, .hart = 0, .kernel = false};
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  EXPECT_EQ(map_.btb_mode1(ip, kUserA), map_.btb_mode1(ip, worker));
  const auto enc = map_.encode_target(0x1234, kUserA);
  EXPECT_EQ(map_.decode_target(ip, enc, worker), 0x1234u)
      << "shared ST ⇒ shared usable history";
}

TEST_F(StbpuMappingTest, Mode2TagKeyedByEntityAndBhb) {
  EXPECT_NE(map_.btb_mode2_tag(0x1234, kUserA), map_.btb_mode2_tag(0x4321, kUserA));
  EXPECT_NE(map_.btb_mode2_tag(0x1234, kUserA), map_.btb_mode2_tag(0x1234, kUserB));
}

}  // namespace
}  // namespace stbpu::core
