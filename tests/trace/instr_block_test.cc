// Block-generation contract: the SoA block API must emit the identical
// record sequence as per-record generation (same seed → same RNG draws →
// same records), across arbitrary block boundaries; pregenerated traces
// replayed through InstrTraceStream must be indistinguishable from the
// live generator — including through the OoO core (stats, cycles, stall
// attribution, cache counters) and under SMT thread interleave.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "exp/engine_visit.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/digest.h"
#include "sim/ooo.h"
#include "trace/batch.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/pregen.h"
#include "trace/profile.h"

namespace stbpu {
namespace {

bool same_record(const trace::InstrRecord& a, const trace::InstrRecord& b) {
  if (a.kind != b.kind || a.dst != b.dst || a.src1 != b.src1 || a.src2 != b.src2 ||
      a.streaming != b.streaming || a.mem_addr != b.mem_addr) {
    return false;
  }
  if (a.kind != trace::InstrRecord::Kind::kBranch) return true;
  return a.branch.ip == b.branch.ip && a.branch.target == b.branch.target &&
         a.branch.type == b.branch.type && a.branch.taken == b.branch.taken &&
         a.branch.ctx == b.branch.ctx;
}

TEST(InstrBlock, BlockFillMatchesPerRecordAcrossBoundaries) {
  const auto profile = trace::profile_by_name("mcf");
  trace::SyntheticInstrGenerator per_record(profile);

  // Ragged block sizes (1, 7, 48, 4096) so block boundaries land on every
  // phase of the generator (mid-basic-block, pending-branch, post-branch).
  const std::size_t limits[] = {1, 7, 48, 4096};
  trace::SyntheticInstrGenerator blocked(profile);
  trace::InstrBlock block;
  std::size_t consumed = 0, which = 0;
  while (consumed < 20'000) {
    const std::size_t limit = limits[which++ % 4];
    const std::size_t n = blocked.next_block(block, limit);
    ASSERT_EQ(n, limit) << "generator is unbounded";
    ASSERT_EQ(block.size(), n);
    std::size_t branches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      trace::InstrRecord expect;
      ASSERT_TRUE(per_record.next(expect));
      EXPECT_TRUE(same_record(expect, block.record(i))) << "instr " << consumed + i;
      // SoA invariants: the prefix count addresses the compacted payloads.
      EXPECT_EQ(block.branch_before[i], branches);
      if (block.is_branch(i)) {
        EXPECT_EQ(block.branch(i).ip, expect.branch.ip);
        ++branches;
      }
    }
    EXPECT_EQ(branches, block.branches.size());
    consumed += n;
  }
}

TEST(InstrBlock, BranchGeneratorBatchMatchesPerRecord) {
  const auto profile = trace::profile_by_name("mcf");
  trace::SyntheticWorkloadGenerator per_record(profile);
  trace::SyntheticWorkloadGenerator batched(profile);
  trace::BranchBatch batch;
  for (unsigned round = 0; round < 8; ++round) {
    const std::size_t n = batched.next_batch(batch, 1000 + round * 37);
    ASSERT_EQ(n, batch.size());
    for (std::size_t i = 0; i < n; ++i) {
      bpu::BranchRecord expect;
      ASSERT_TRUE(per_record.next(expect));
      const bpu::BranchRecord got = batch.record(i);
      EXPECT_EQ(expect.ip, got.ip);
      EXPECT_EQ(expect.target, got.target);
      EXPECT_EQ(expect.type, got.type);
      EXPECT_EQ(expect.taken, got.taken);
      EXPECT_TRUE(expect.ctx == got.ctx);
    }
  }
}

TEST(InstrBlock, PregenTraceReplaysGeneratorExactly) {
  const auto profile = trace::profile_by_name("bwaves");
  const auto artifact = trace::generate_instr_trace(profile, 10'000);
  ASSERT_EQ(artifact->size(), 10'000u);

  trace::SyntheticInstrGenerator gen(profile);
  trace::InstrTraceStream stream(artifact);
  trace::InstrRecord expect, got;
  for (std::size_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(gen.next(expect));
    ASSERT_TRUE(stream.next(got));
    ASSERT_TRUE(same_record(expect, got)) << "instr " << i;
  }
  EXPECT_FALSE(stream.next(got)) << "trace ends exactly at its pregen count";

  // borrow_block lends pointers into the artifact itself (zero copy).
  stream.reset();
  std::size_t start = ~std::size_t{0}, n = 0;
  const trace::InstrBlock* b = stream.borrow_block(256, start, n);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b, &artifact->block);
  EXPECT_EQ(start, 0u);
  EXPECT_EQ(n, 256u);
  b = stream.borrow_block(1 << 20, start, n);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(start, 256u);
  EXPECT_EQ(n, 10'000u - 256u) << "borrow clamps at end of trace";
  EXPECT_TRUE(stream.contiguous());
}

TEST(InstrBlock, SharedTraceCacheMemoizes) {
  trace::clear_instr_trace_cache();
  const auto profile = trace::profile_by_name("mcf");
  const auto a = trace::shared_instr_trace(profile, 2'000);
  const auto b = trace::shared_instr_trace(profile, 2'000);
  EXPECT_EQ(a.get(), b.get()) << "same (profile, seed, count) shares one artifact";
  const auto c = trace::shared_instr_trace(profile, 3'000);
  EXPECT_NE(a.get(), c.get()) << "different count is a different artifact";
  const auto d = trace::shared_instr_trace(profile, 2'000, /*seed_override=*/77);
  EXPECT_NE(a.get(), d.get()) << "different seed is a different artifact";
  trace::WorkloadProfile tweaked = profile;
  tweaked.branch_density *= 2.0;  // same name + seed, different generator knobs
  const auto t = trace::shared_instr_trace(tweaked, 2'000);
  EXPECT_NE(a.get(), t.get()) << "a tweaked same-named profile must regenerate";
  EXPECT_TRUE(t->profile == tweaked);
  trace::clear_instr_trace_cache();
  const auto e = trace::shared_instr_trace(profile, 2'000);
  EXPECT_NE(a.get(), e.get()) << "clear drops the memo (old artifact stays alive)";
  EXPECT_EQ(a->size(), e->size());
}

void expect_same_result(const sim::OooResult& gen_r, const sim::OooResult& pre_r) {
  ASSERT_EQ(gen_r.threads, pre_r.threads);
  for (unsigned t = 0; t < gen_r.threads; ++t) {
    EXPECT_EQ(gen_r.instructions[t], pre_r.instructions[t]);
    EXPECT_EQ(gen_r.cycles[t], pre_r.cycles[t]);
    EXPECT_EQ(gen_r.ipc[t], pre_r.ipc[t]);
    EXPECT_EQ(gen_r.branch_stats[t], pre_r.branch_stats[t]);
    EXPECT_EQ(gen_r.stalls[t], pre_r.stalls[t]);
  }
  EXPECT_EQ(gen_r.cache, pre_r.cache);
  EXPECT_GT(gen_r.combined_stats().branches, 0u);
}

TEST(InstrBlock, PregenThroughTickCoreBitIdentical) {
  // The core fills its chunks from the pregenerated stream's borrowed
  // blocks and from the generator record by record; everything the simulation
  // computes, stalls included, must match between the two fetch paths, and
  // the generator run's digest is pinned.
  constexpr std::uint64_t kBudget = 15'000, kWarmup = 1'500;
  const auto profile = trace::profile_by_name("mcf");
  const auto artifact =
      trace::generate_instr_trace(profile, kBudget + kWarmup + 4096);
  struct DirectionDigest {
    models::DirectionKind direction;
    std::uint64_t digest;
  };
  for (const auto [dir, golden] :
       {DirectionDigest{models::DirectionKind::kSklCond, 0x97d6c63ac4699e6bULL},
        DirectionDigest{models::DirectionKind::kTage8, 0xcc5cf01d5be66f98ULL}}) {
    const models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};
    sim::OooResult gen_r{}, pre_r{};
    ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
      trace::SyntheticInstrGenerator gen(profile);
      gen_r = sim::run_ooo({}, engine, {&gen}, kBudget, kWarmup);
    }));
    ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
      trace::InstrTraceStream stream(artifact);
      pre_r = sim::run_ooo({}, engine, {&stream}, kBudget, kWarmup);
    }));
    expect_same_result(gen_r, pre_r);
    EXPECT_EQ(sim::digest_of(gen_r), golden)
        << models::to_string(dir) << " digest 0x" << std::hex << sim::digest_of(gen_r);
  }
}

TEST(InstrBlock, PregenSmtInterleaveBitIdentical) {
  // Two pregenerated per-thread streams through the SMT-2 configuration:
  // the shared-BPU access interleave, context switches and both threads'
  // cycles must reproduce the two-generator run exactly.
  constexpr std::uint64_t kBudget = 10'000, kWarmup = 1'000;
  const auto p0 = trace::profile_by_name("bwaves");
  const auto p1 = trace::profile_by_name("mcf");
  const auto a0 = trace::generate_instr_trace(p0, kBudget + kWarmup + 4096);
  const auto a1 = trace::generate_instr_trace(p1, kBudget + kWarmup + 4096);
  const models::ModelSpec spec{.model = models::ModelKind::kStbpu,
                               .direction = models::DirectionKind::kTage64};
  sim::OooResult gen_r{}, pre_r{}, mixed_r{};
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
    trace::SyntheticInstrGenerator g0(p0), g1(p1);
    gen_r = sim::run_ooo({}, engine, {&g0, &g1}, kBudget, kWarmup);
  }));
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
    trace::InstrTraceStream s0(a0), s1(a1);
    pre_r = sim::run_ooo({}, engine, {&s0, &s1}, kBudget, kWarmup);
  }));
  expect_same_result(gen_r, pre_r);
  EXPECT_EQ(gen_r.threads, 2u);
  EXPECT_EQ(gen_r.ipc_harmonic_mean(), pre_r.ipc_harmonic_mean());

  // Mixed sources — thread 0 pregenerated, thread 1 live — must also be
  // identical: the fill path is chosen per thread.
  ASSERT_TRUE(exp::for_each_engine(spec, [&](auto& engine) {
    trace::InstrTraceStream s0(a0);
    trace::SyntheticInstrGenerator g1(p1);
    mixed_r = sim::run_ooo({}, engine, {&s0, &g1}, kBudget, kWarmup);
  }));
  expect_same_result(gen_r, mixed_r);
}

}  // namespace
}  // namespace stbpu
