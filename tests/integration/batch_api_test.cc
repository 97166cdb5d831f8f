// Batched Rt contract: TAGE's tage_rt_all fetches ψ exactly where the
// per-table calls did, so token creation order is unchanged.
#include <gtest/gtest.h>

#include <cstdint>

#include "bpu/mapping.h"
#include "core/remap_cache.h"
#include "core/secret_token.h"
#include "util/rng.h"

namespace stbpu {
namespace {

TEST(BatchApi, RtBatchKeepsTokenCreationOrder) {
  // tage_rt_all fetches ψ through the demand path's token(ctx), once per
  // access, exactly where the first per-table tage_index call did. Driving
  // the same entity sequence through tage_rt_all on one manager and
  // through per-table tage_index/tage_tag on another must create the same
  // tokens in the same order — including across a forced re-key — and
  // produce the same Rt outputs.
  core::STManager batch_stm(0x5678), table_stm(0x5678);
  const core::CachedStbpuMapping batch_map(&batch_stm), table_map(&table_stm);
  constexpr unsigned kTables = 10, kIndexBits = 13, kTagBits = 12;
  std::uint64_t index_keys[kTables], tag_keys[kTables];
  for (unsigned t = 0; t < kTables; ++t) {
    index_keys[t] = 0x1234567ULL * (t + 1);
    tag_keys[t] = index_keys[t] ^ 0x5A5A;
  }
  util::Xoshiro256 rng(0x70C);
  for (int i = 0; i < 400; ++i) {
    const bpu::ExecContext ctx{.pid = static_cast<std::uint16_t>(1 + rng.below(40)),
                               .hart = static_cast<std::uint8_t>(rng() & 1),
                               .kernel = rng.chance(0.1)};
    const std::uint64_t ip = 0x400000 + (rng() & 0xFFF0);
    std::uint32_t idx[kTables], tag[kTables], loop_tag = 0;
    batch_map.tage_rt_all(ip, index_keys, tag_keys, kTables, kIndexBits, kTagBits, idx, tag,
                          &loop_tag, ctx);
    for (unsigned t = 0; t < kTables; ++t) {
      ASSERT_EQ(idx[t], table_map.tage_index(ip, index_keys[t], t, kIndexBits, ctx)) << i;
      ASSERT_EQ(tag[t], table_map.tage_tag(ip, tag_keys[t], t, kTagBits, ctx)) << i;
    }
    ASSERT_EQ(loop_tag, table_map.tage_tag(ip, 0, bpu::kTageLoopTagTable,
                                           bpu::kTageLoopTagBits, ctx))
        << i;
    if (i == 200) {
      batch_stm.rerandomize(ctx);
      table_stm.rerandomize(ctx);
    }
  }
  for (std::uint16_t pid = 0; pid < 64; ++pid) {
    const bpu::ExecContext ctx{.pid = pid, .hart = 0, .kernel = false};
    EXPECT_EQ(batch_stm.token(ctx).psi, table_stm.token(ctx).psi) << pid;
  }
}

}  // namespace
}  // namespace stbpu
