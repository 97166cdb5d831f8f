// Batch-native prediction API contracts:
//   * access_batch ≡ a scalar access() loop, result for result;
//   * precompute is pure cache warming — even adversarially wrong
//     speculative GHRs must be detected (tag mismatch) and discarded
//     without perturbing a single statistic;
//   * the mapping-level probe/fill never creates secret tokens (token
//     creation order is architectural state) and drops foreign-context
//     requests;
//   * TAGE engines do no lookahead work: their batched Rt call fetches ψ
//     exactly where the per-table calls did, so token creation order is
//     unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/remap_cache.h"
#include "core/secret_token.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/stream.h"
#include "util/rng.h"

namespace stbpu {
namespace {

std::vector<bpu::BranchRecord> test_trace(std::size_t n) {
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
  return trace::collect(gen, n);
}

void expect_result_eq(const bpu::AccessResult& a, const bpu::AccessResult& b,
                      std::size_t i) {
  EXPECT_EQ(a.direction_correct, b.direction_correct) << i;
  EXPECT_EQ(a.target_correct, b.target_correct) << i;
  EXPECT_EQ(a.overall_correct, b.overall_correct) << i;
  EXPECT_EQ(a.direction_mispredicted, b.direction_mispredicted) << i;
  EXPECT_EQ(a.target_mispredicted, b.target_mispredicted) << i;
  EXPECT_EQ(a.btb_eviction, b.btb_eviction) << i;
  EXPECT_EQ(a.rsb_underflow, b.rsb_underflow) << i;
  EXPECT_EQ(a.from_tagged, b.from_tagged) << i;
  EXPECT_EQ(a.pred.taken, b.pred.taken) << i;
  EXPECT_EQ(a.pred.target_valid, b.pred.target_valid) << i;
  EXPECT_EQ(a.pred.target, b.pred.target) << i;
}

TEST(BatchApi, AccessBatchMatchesScalarLoop) {
  const auto records = test_trace(30'000);
  for (const auto dir : {models::DirectionKind::kSklCond, models::DirectionKind::kTage8,
                         models::DirectionKind::kPerceptron}) {
    const models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};

    auto scalar_engine = models::make_engine(spec);
    std::vector<bpu::AccessResult> scalar_results;
    scalar_results.reserve(records.size());
    for (const auto& rec : records) scalar_results.push_back(scalar_engine->access(rec));

    auto batch_engine = models::make_engine(spec);
    std::vector<bpu::AccessResult> batch_results(records.size());
    bool dispatched = models::visit_engine(*batch_engine, [&](auto& e) {
      constexpr std::size_t kChunk = 512;
      for (std::size_t at = 0; at < records.size(); at += kChunk) {
        const std::size_t n = std::min(kChunk, records.size() - at);
        e.access_batch(std::span<const bpu::BranchRecord>(&records[at], n),
                       std::span<bpu::AccessResult>(&batch_results[at], n));
      }
    });
    ASSERT_TRUE(dispatched);
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_result_eq(scalar_results[i], batch_results[i], i);
    }
  }
}

// Replay bookkeeping identical to sim::replay's step sequence, with an
// optional hostile precompute injected before every chunk.
template <class Engine, class Corrupt>
sim::BranchStats replay_with(Engine& engine, const std::vector<bpu::BranchRecord>& recs,
                             std::size_t chunk, Corrupt&& corrupt) {
  sim::BranchStats stats;
  bool have_last[2] = {false, false};
  bpu::ExecContext last[2];
  for (std::size_t at = 0; at < recs.size(); at += chunk) {
    const std::size_t n = std::min(chunk, recs.size() - at);
    corrupt(engine, &recs[at], n);
    for (std::size_t i = 0; i < n; ++i) {
      const bpu::BranchRecord& rec = recs[at + i];
      const unsigned h = rec.ctx.hart & 1;
      if (have_last[h] && !(last[h] == rec.ctx)) {
        engine.on_switch(last[h], rec.ctx);
        if (last[h].pid != rec.ctx.pid) {
          ++stats.context_switches;
        } else {
          ++stats.mode_switches;
        }
      }
      last[h] = rec.ctx;
      have_last[h] = true;
      stats.absorb(rec, engine.access(rec));
    }
  }
  return stats;
}

TEST(BatchApi, WrongGhrPrecomputeIsDiscardedWithoutStatPollution) {
  const auto records = test_trace(40'000);
  for (const auto dir : {models::DirectionKind::kSklCond,
                         models::DirectionKind::kPerceptron}) {
    const models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};

    auto clean = models::make_engine(spec);
    sim::BranchStats clean_stats;
    ASSERT_TRUE(models::visit_engine(*clean, [&](auto& e) {
      clean_stats = replay_with(e, records, 512, [](auto&, const bpu::BranchRecord*,
                                                    std::size_t) {});
    }));

    // Hostile lookahead: every chunk is precomputed with garbage
    // speculative GHRs, every request promoted to conditional so the R4
    // path definitely fires on the SKLCond engine (on the Perceptron
    // engine precompute is an engine-level no-op, making that leg a
    // stability check). Entries keyed by wrong GHRs never match at access
    // time. Statistics must be bit-identical either way.
    auto hostile = models::make_engine(spec);
    util::Xoshiro256 rng(0xBAD);
    sim::BranchStats hostile_stats;
    ASSERT_TRUE(models::visit_engine(*hostile, [&](auto& e) {
      hostile_stats = replay_with(
          e, records, 512,
          [&rng](auto& eng, const bpu::BranchRecord* run, std::size_t n) {
            std::vector<bpu::PredictRequest> reqs;
            reqs.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
              reqs.push_back(bpu::PredictRequest{.ip = run[i].ip,
                                                 .ghr = rng(),  // wrong on purpose
                                                 .ctx = run[i].ctx,
                                                 .type = bpu::BranchType::kConditional});
            }
            eng.precompute(std::span<const bpu::PredictRequest>(reqs));
          });
    }));
    EXPECT_EQ(clean_stats, hostile_stats)
        << "hostile precompute leaked into statistics (dir="
        << models::to_string(dir) << ")";
  }
}

TEST(BatchApi, ReplayPrecomputePathMatchesScalarSimulate) {
  // sim::replay now precomputes every borrowed run through the batch
  // kernels; the scalar record-at-a-time simulate_bpu is the oracle.
  const auto records = test_trace(50'000);
  const sim::BpuSimOptions opt{.max_branches = 40'000, .warmup_branches = 5'000};
  for (const auto dir : {models::DirectionKind::kSklCond, models::DirectionKind::kTage8,
                         models::DirectionKind::kTage64,
                         models::DirectionKind::kPerceptron}) {
    const models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};
    auto scalar_engine = models::make_engine(spec);
    trace::VectorStream s1(records);
    const auto scalar_stats = sim::simulate_bpu(*scalar_engine, s1, opt);

    auto batch_engine = models::make_engine(spec);
    trace::VectorStream s2(records);
    const auto batch_stats = models::replay_engine(*batch_engine, s2, opt);
    EXPECT_EQ(scalar_stats, batch_stats) << models::to_string(dir);

    // The precompute-off arm of the A/B lever must be just as
    // bit-identical — it is the same binary minus the cache warming.
    auto off_engine = models::make_engine(spec);
    trace::VectorStream s3(records);
    auto opt_off = opt;
    opt_off.precompute = false;
    const auto off_stats = models::replay_engine(*off_engine, s3, opt_off);
    EXPECT_EQ(scalar_stats, off_stats) << models::to_string(dir) << " (precompute off)";

    // SKLCond's GHR-keyed R4 has compulsory misses worth batching — it
    // must actually batch. TAGE batches its Rt keys per access instead (no
    // Rt memo lookups, no lookahead), and the perceptron pays zero
    // precompute overhead (engine-level no-op).
    const auto cache = models::engine_remap_cache_stats(*batch_engine);
    const auto cache_off = models::engine_remap_cache_stats(*off_engine);
    EXPECT_EQ(cache_off.batch_requests, 0u) << models::to_string(dir);
    if (dir == models::DirectionKind::kSklCond) {
      EXPECT_GT(cache.batch_requests, 0u) << models::to_string(dir);
      EXPECT_GT(cache.batch_fills, 0u) << models::to_string(dir);
    } else {
      EXPECT_EQ(cache.batch_requests, 0u) << models::to_string(dir);
      EXPECT_EQ(cache.batch_fills, 0u) << models::to_string(dir);
    }
    for (const auto f : {core::RemapCacheStats::kRtIndex, core::RemapCacheStats::kRtTag}) {
      EXPECT_EQ(cache.fn_hits[f] + cache.fn_misses[f], 0u) << models::to_string(dir);
    }
  }
}

TEST(BatchApi, WrongOutcomeTagePrecomputeIsDiscardedWithoutStatPollution) {
  // TAGE rendering of the adversarial-lookahead contract. TAGE engines
  // batch their Rt keys at predict time and have no lookahead, so
  // precompute_records must be inert: feeding it each chunk with randomly
  // flipped outcomes must leave every statistic bit-identical to the clean
  // run and warm nothing.
  const auto records = test_trace(40'000);
  for (const auto dir : {models::DirectionKind::kTage8, models::DirectionKind::kTage64}) {
    const models::ModelSpec spec{.model = models::ModelKind::kStbpu, .direction = dir};

    auto clean = models::make_engine(spec);
    sim::BranchStats clean_stats;
    ASSERT_TRUE(models::visit_engine(*clean, [&](auto& e) {
      clean_stats = replay_with(e, records, 64, [](auto&, const bpu::BranchRecord*,
                                                   std::size_t) {});
    }));

    auto hostile = models::make_engine(spec);
    util::Xoshiro256 rng(0xBAD);
    sim::BranchStats hostile_stats;
    ASSERT_TRUE(models::visit_engine(*hostile, [&](auto& e) {
      hostile_stats = replay_with(
          e, records, 64,
          [&rng](auto& eng, const bpu::BranchRecord* run, std::size_t n) {
            std::vector<bpu::BranchRecord> wrong(run, run + n);
            for (auto& rec : wrong) {
              if ((rng() & 1) != 0) rec.taken = !rec.taken;  // wrong on purpose
            }
            eng.precompute_records(std::span<const bpu::BranchRecord>(wrong));
          });
    }));
    EXPECT_EQ(clean_stats, hostile_stats)
        << "hostile TAGE precompute leaked into statistics (dir="
        << models::to_string(dir) << ")";
    const auto cache = models::engine_remap_cache_stats(*hostile);
    EXPECT_EQ(cache.batch_requests, 0u) << models::to_string(dir);
    EXPECT_EQ(cache.batch_fills, 0u) << models::to_string(dir);
  }
}

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

TEST(BatchApi, MappingPrecomputeNeverCreatesTokens) {
  core::STManager stm(0x1234);
  const core::CachedStbpuMapping mapping(&stm);
  const bpu::ExecContext ctx{.pid = 7, .hart = 0, .kernel = false};

  std::vector<bpu::PredictRequest> reqs;
  for (std::uint64_t i = 0; i < 32; ++i) {
    reqs.push_back(bpu::PredictRequest{.ip = 0x1000 + i * 64,
                                       .ghr = i,
                                       .ctx = ctx,
                                       .type = bpu::BranchType::kConditional});
  }
  core::CachedStbpuMapping::PrecomputeSelect sel;
  sel.r34 = true;

  // Before any demand access the mapping holds no token — the whole span
  // must be dropped, and the STManager must not have been asked to create
  // one (same PRNG draw sequence as an untouched manager).
  mapping.precompute(std::span<const bpu::PredictRequest>(reqs), sel);
  EXPECT_EQ(mapping.stats().batch_drops, reqs.size());
  EXPECT_EQ(mapping.stats().batch_fills, 0u);
  core::STManager fresh(0x1234);
  EXPECT_EQ(stm.token(ctx).psi, fresh.token(ctx).psi)
      << "precompute changed the token creation order";

  // One demand access establishes the token; the same span now fills.
  (void)mapping.btb_mode1(0x9999, ctx);
  mapping.precompute(std::span<const bpu::PredictRequest>(reqs), sel);
  EXPECT_GT(mapping.stats().batch_fills, 0u);

  // Filled entries serve demand lookups with values identical to the
  // direct Remapper computation.
  const std::uint32_t psi = stm.token(ctx).psi;
  for (const auto& q : reqs) {
    const auto pair = mapping.pht_indexes(q.ip, q.ghr, ctx);
    EXPECT_EQ(pair.i1, core::Remapper::r3(psi, q.ip));
    EXPECT_EQ(pair.i2, core::Remapper::r4(psi, q.ip, q.ghr));
    EXPECT_EQ(mapping.btb_mode1(q.ip, ctx), core::Remapper::r1(psi, q.ip));
  }

  // Foreign contexts are dropped request by request.
  const std::uint64_t drops_before = mapping.stats().batch_drops;
  std::vector<bpu::PredictRequest> foreign = reqs;
  for (auto& q : foreign) q.ctx.pid = 8;
  mapping.precompute(std::span<const bpu::PredictRequest>(foreign), sel);
  EXPECT_EQ(mapping.stats().batch_drops, drops_before + foreign.size());
}

TEST(BatchApi, MappingRpWarmingMatchesDemand) {
  // The perceptron-row warm is a mapping-level capability (engines don't
  // select it — Rp's demand hit rate makes it a net loss there); callers
  // that do select it must get bit-identical fills.
  core::STManager stm(0xABC);
  const core::CachedStbpuMapping mapping(&stm);
  const bpu::ExecContext ctx{.pid = 3, .hart = 0, .kernel = false};
  constexpr unsigned kRowBits = 10;
  (void)mapping.perceptron_row(0x40, kRowBits, ctx);  // establish the token

  std::vector<bpu::PredictRequest> reqs;
  for (std::uint64_t i = 0; i < 24; ++i) {
    reqs.push_back(bpu::PredictRequest{.ip = 0x7000 + i * 4,
                                       .ghr = 0,
                                       .ctx = ctx,
                                       .type = bpu::BranchType::kConditional});
  }
  core::CachedStbpuMapping::PrecomputeSelect sel;
  sel.r1 = false;
  sel.rp = true;
  sel.rp_row_bits = kRowBits;
  mapping.precompute(std::span<const bpu::PredictRequest>(reqs), sel);
  EXPECT_GT(mapping.stats().fn_batch_fills[core::RemapCacheStats::kRp], 0u);

  const std::uint32_t psi = stm.token(ctx).psi;
  const auto misses_before = mapping.stats().fn_misses[core::RemapCacheStats::kRp];
  for (const auto& q : reqs) {
    EXPECT_EQ(mapping.perceptron_row(q.ip, kRowBits, ctx),
              core::Remapper::rp(psi, q.ip, kRowBits));
  }
  EXPECT_EQ(mapping.stats().fn_misses[core::RemapCacheStats::kRp], misses_before)
      << "demand path missed despite Rp precompute";
}

TEST(BatchApi, PrecomputedEntriesCountAsDemandHits) {
  core::STManager stm(0x777);
  const core::CachedStbpuMapping mapping(&stm);
  const bpu::ExecContext ctx{.pid = 1, .hart = 0, .kernel = false};
  (void)mapping.btb_mode1(0x40, ctx);  // establish the token

  std::vector<bpu::PredictRequest> reqs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    reqs.push_back(bpu::PredictRequest{.ip = 0x2000 + i * 4,
                                       .ghr = 0x3F ^ i,
                                       .ctx = ctx,
                                       .type = bpu::BranchType::kConditional});
  }
  core::CachedStbpuMapping::PrecomputeSelect sel;
  sel.r34 = true;
  mapping.precompute(std::span<const bpu::PredictRequest>(reqs), sel);

  const auto before = mapping.stats();
  for (const auto& q : reqs) {
    (void)mapping.pht_indexes(q.ip, q.ghr, ctx);
    (void)mapping.btb_mode1(q.ip, ctx);
  }
  const auto after = mapping.stats();
  EXPECT_EQ(after.fn_misses[core::RemapCacheStats::kR34],
            before.fn_misses[core::RemapCacheStats::kR34])
      << "demand path missed despite precompute";
  EXPECT_EQ(after.fn_misses[core::RemapCacheStats::kR1],
            before.fn_misses[core::RemapCacheStats::kR1]);
  EXPECT_EQ(after.fn_hits[core::RemapCacheStats::kR34],
            before.fn_hits[core::RemapCacheStats::kR34] + reqs.size());
}

}  // namespace
}  // namespace stbpu
