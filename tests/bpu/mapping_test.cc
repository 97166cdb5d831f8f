// BaselineMappingLogic tests: the legacy truncating/folding behaviour that the
// Table I attacks rely on must hold exactly.
#include "bpu/mapping.h"

#include <gtest/gtest.h>

namespace stbpu::bpu {
namespace {

const ExecContext kCtx{.pid = 1, .hart = 0, .kernel = false};
const ExecContext kOther{.pid = 2, .hart = 0, .kernel = false};

TEST(BaselineMappingLogic, IgnoresProcessIdentity) {
  const BaselineMappingLogic m;
  const std::uint64_t ip = 0x1234'5678'9ABCULL & kVirtualAddressMask;
  EXPECT_EQ(m.btb_mode1(ip, kCtx), m.btb_mode1(ip, kOther))
      << "legacy BPU keys on virtual address only — cross-process collisions";
  EXPECT_EQ(m.pht_index_1level(ip, kCtx), m.pht_index_1level(ip, kOther));
}

TEST(BaselineMappingLogic, TruncatesAbove30Bits) {
  const BaselineMappingLogic m;
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  const std::uint64_t alias = ip + (1ULL << 30);
  EXPECT_EQ(m.btb_mode1(ip, kCtx), m.btb_mode1(alias, kCtx))
      << "same-address-space aliases (transient trojans [78])";
  EXPECT_EQ(m.pht_index_1level(ip, kCtx), m.pht_index_1level(alias, kCtx));
}

TEST(BaselineMappingLogic, BtbFieldWidths) {
  const BaselineMappingLogic m;
  for (std::uint64_t ip = 0; ip < 4096; ip += 17) {
    const BtbIndex idx = m.btb_mode1(ip * 0x9E3779B9ULL & kVirtualAddressMask, kCtx);
    EXPECT_LT(idx.set, 512u);
    EXPECT_LE(idx.tag, 0xFFu);
    EXPECT_LT(idx.offset, 32u);
  }
}

TEST(BaselineMappingLogic, SetComesFromLowBits) {
  const BaselineMappingLogic m;
  // set = bits 5..13: two addresses differing only in bit 5 land in
  // adjacent sets.
  const std::uint64_t ip = 0x0000'1000'0000ULL;
  EXPECT_EQ(m.btb_mode1(ip, kCtx).set + 1, m.btb_mode1(ip + 32, kCtx).set);
}

TEST(BaselineMappingLogic, TagFoldCollisionsAreConstructible) {
  const BaselineMappingLogic m;
  // fold_xor is linear: flipping the same bit pattern in two folded chunks
  // cancels. bits 14..21 and 22..29 fold onto each other.
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  const std::uint64_t crafted = ip ^ (0x5ULL << 14) ^ (0x5ULL << 22);
  ASSERT_NE(ip, crafted);
  EXPECT_EQ(m.btb_mode1(ip, kCtx).set, m.btb_mode1(crafted, kCtx).set);
  EXPECT_EQ(m.btb_mode1(ip, kCtx).tag, m.btb_mode1(crafted, kCtx).tag);
}

TEST(BaselineMappingLogic, Function5RebuildsNearbyTargets) {
  const BaselineMappingLogic m;
  const std::uint64_t branch = 0x0000'2345'6780ULL;
  const std::uint64_t target = 0x0000'2345'9000ULL;  // same upper 16 bits
  const auto stored = m.encode_target(target, kCtx);
  EXPECT_LE(stored, 0xFFFF'FFFFULL) << "baseline stores 32 bits";
  EXPECT_EQ(m.decode_target(branch, stored, kCtx), target);
}

TEST(BaselineMappingLogic, Function5BreaksFarTargets) {
  const BaselineMappingLogic m;
  // A target whose upper 16 bits differ from the branch's cannot be
  // reconstructed — inherent legacy truncation loss.
  const std::uint64_t branch = 0x7FFF'0000'1000ULL;
  const std::uint64_t target = 0x0000'2345'9000ULL;
  EXPECT_NE(m.decode_target(branch, m.encode_target(target, kCtx), kCtx), target);
}

TEST(BaselineMappingLogic, Mode2TagDependsOnBhb) {
  const BaselineMappingLogic m;
  EXPECT_NE(m.btb_mode2_tag(0x123456, kCtx), m.btb_mode2_tag(0x654321, kCtx));
  EXPECT_EQ(m.btb_mode2_tag(0x123456, kCtx), m.btb_mode2_tag(0x123456, kOther));
}

TEST(BaselineMappingLogic, TwoLevelIndexMixesHistory) {
  const BaselineMappingLogic m;
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  EXPECT_NE(m.pht_index_2level(ip, 0b1010, kCtx), m.pht_index_2level(ip, 0b0101, kCtx));
  // With identical history it reduces to a deterministic index.
  EXPECT_EQ(m.pht_index_2level(ip, 0b1010, kCtx), m.pht_index_2level(ip, 0b1010, kCtx));
}

TEST(BaselineMappingLogic, TageHooksAreDeterministic) {
  const BaselineMappingLogic m;
  const std::uint64_t ip = 0x0000'2345'6780ULL;
  EXPECT_EQ(m.tage_index(ip, 0xABC, 3, 10, kCtx), m.tage_index(ip, 0xABC, 3, 10, kCtx));
  EXPECT_LT(m.tage_index(ip, 0xABC, 3, 10, kCtx), 1u << 10);
  EXPECT_LT(m.tage_tag(ip, 0xABC, 3, 8, kCtx), 1u << 8);
  EXPECT_LT(m.perceptron_row(ip, 10, kCtx), 1u << 10);
}

}  // namespace
}  // namespace stbpu::bpu
