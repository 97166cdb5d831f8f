// Direct timing-invariant tests for the integer-tick OoO core (OooCoreT):
// scripted instruction streams and a scripted BPU make every event time
// hand-computable, so the tests assert exact tick values — redirect stalls,
// ROB occupancy back-pressure, SMT bandwidth sharing — instead of the
// indirect IPC-shape checks in sim_test.cc.
// Also pins the integer core to the double-precision reference core
// (OooCoreRefT) across widths, including a non-power-of-two width where the
// reference accumulates 1/width rounding and only the statistics contract
// (not bit-equal cycles) can hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/ooo.h"
#include "trace/instr.h"
#include "trace/pregen.h"
#include "trace/profile.h"

namespace stbpu {
namespace {

using trace::InstrRecord;

/// Deterministic BPU: mispredicts exactly the accesses whose ordinal (from
/// 0) appears in `mispredict_every` steps. Mostly fed by generator streams,
/// so the core's per-record fill path is exercised.
struct ScriptedBpu {
  std::uint64_t accesses = 0;
  std::uint64_t mispredict_every = 0;  ///< 0 = always correct

  bpu::AccessResult access(const bpu::BranchRecord&) {
    const bool wrong =
        mispredict_every != 0 && accesses % mispredict_every == 0;
    ++accesses;
    bpu::AccessResult r;
    r.overall_correct = !wrong;
    r.direction_correct = !wrong;
    r.direction_mispredicted = wrong;
    return r;
  }
  void on_switch(const bpu::ExecContext&, const bpu::ExecContext&) {}
};

class ScriptedStream final : public trace::InstrStream {
 public:
  explicit ScriptedStream(std::vector<InstrRecord> recs) : recs_(std::move(recs)) {}
  bool next(InstrRecord& out) override {
    if (pos_ >= recs_.size()) return false;
    out = recs_[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }

 private:
  std::vector<InstrRecord> recs_;
  std::size_t pos_ = 0;
};

InstrRecord alu() { return InstrRecord{}; }
InstrRecord div_instr() {
  InstrRecord r;
  r.kind = InstrRecord::Kind::kDiv;
  return r;
}
InstrRecord branch() {
  InstrRecord r;
  r.kind = InstrRecord::Kind::kBranch;
  r.branch.ip = 0x1000;
  r.branch.target = 0x2000;
  return r;
}

TEST(OooCoreTiming, MispredictRedirectStallEqualsResolveDepthPlusPenalty) {
  // width=1 makes ticks == cycles; one mispredicted branch followed by ALUs.
  // The branch resolves at frontend_depth + lat_branch, and the next fetch
  // is pushed to resolve + mispredict_penalty — the redirect stall counter
  // must equal exactly that, and total cycles must move by exactly the
  // penalty delta.
  const auto run_with_penalty = [](unsigned penalty) {
    sim::OooConfig cfg;
    cfg.width = 1;
    cfg.mispredict_penalty = penalty;
    std::vector<InstrRecord> recs{branch()};
    for (int i = 0; i < 10; ++i) recs.push_back(alu());
    ScriptedStream stream(recs);
    ScriptedBpu bpu{.mispredict_every = 1};  // every branch mispredicts
    sim::OooCoreT<ScriptedBpu> core(cfg, &bpu, {&stream});
    return core.run(/*instr_budget=*/11, /*warmup=*/0);
  };

  const sim::OooConfig defaults;  // frontend_depth=6, lat_branch=2
  const double resolve =
      static_cast<double>(defaults.frontend_depth + defaults.lat_branch);

  const auto penalized = run_with_penalty(14);
  EXPECT_EQ(penalized.instructions[0], 11u);
  EXPECT_EQ(penalized.stalls[0].redirect, resolve + 14.0);
  EXPECT_EQ(penalized.cycles[0], 38.0);

  const auto free = run_with_penalty(0);
  EXPECT_EQ(free.stalls[0].redirect, resolve);
  EXPECT_EQ(free.cycles[0], 24.0);
  EXPECT_EQ(penalized.cycles[0] - free.cycles[0], 14.0);
}

TEST(OooCoreTiming, NoMispredictsMeansNoRedirectStall) {
  sim::OooConfig cfg;
  cfg.width = 1;
  std::vector<InstrRecord> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(branch());
    recs.push_back(alu());
  }
  ScriptedStream stream(recs);
  ScriptedBpu bpu{};  // always correct
  sim::OooCoreT<ScriptedBpu> core(cfg, &bpu, {&stream});
  const auto r = core.run(16, 0);
  EXPECT_EQ(r.stalls[0].redirect, 0.0);
  EXPECT_EQ(r.branch_stats[0].branches, 8u);
  EXPECT_EQ(r.branch_stats[0].mispredictions, 0u);
}

TEST(OooCoreTiming, RobFullStallsDispatchAndCapsIpc) {
  // Independent 20-cycle divides: a ROB of 8 turns over at most 8 entries
  // per 20 cycles (IPC <= 0.4), while ROB 192 lets the 8-wide machine run
  // free. The lost throughput must be attributed to the ROB counter.
  const auto run_with_rob = [](unsigned rob) {
    sim::OooConfig cfg;
    cfg.rob = rob;
    std::vector<InstrRecord> recs(512, div_instr());
    ScriptedStream stream(recs);
    ScriptedBpu bpu{};
    sim::OooCoreT<ScriptedBpu> core(cfg, &bpu, {&stream});
    return core.run(512, 0);
  };

  const auto small = run_with_rob(8);
  const auto large = run_with_rob(192);
  EXPECT_EQ(small.instructions[0], 512u);
  EXPECT_LE(small.ipc[0], 0.45);
  EXPECT_GT(large.ipc[0], 4.0);
  EXPECT_GT(small.stalls[0].rob, 0.0);
  EXPECT_EQ(large.stalls[0].rob, 0.0) << "a 192-entry ROB never fills here";
  // The ROB is the bottleneck structure: it must dwarf the other dispatch
  // stalls in the attribution.
  EXPECT_GT(small.stalls[0].rob,
            small.stalls[0].iq + small.stalls[0].lq + small.stalls[0].sq);
}

TEST(OooCoreTiming, SmtThreadsShareFetchBandwidthFairly) {
  // Two identical ALU streams on a width-1 machine: the shared fetch port
  // alternates strictly, so both threads see ~2x the solo cycle count,
  // equal instruction counts, and near-identical fetch-bandwidth stall.
  constexpr std::uint64_t kN = 1000;
  const std::vector<InstrRecord> recs(kN, alu());

  sim::OooConfig cfg;
  cfg.width = 1;

  ScriptedStream solo_stream(recs);
  ScriptedBpu solo_bpu{};
  sim::OooCoreT<ScriptedBpu> solo_core(cfg, &solo_bpu, {&solo_stream});
  const auto solo = solo_core.run(kN, 0);

  ScriptedStream s0(recs), s1(recs);
  ScriptedBpu smt_bpu{};
  sim::OooCoreT<ScriptedBpu> smt_core(cfg, &smt_bpu, {&s0, &s1});
  const auto pair = smt_core.run(kN, 0);

  ASSERT_EQ(pair.threads, 2u);
  EXPECT_EQ(pair.instructions[0], kN);
  EXPECT_EQ(pair.instructions[1], kN);
  // Strict alternation: the two threads finish within one cycle of each
  // other, at ~2x the solo time.
  EXPECT_LE(std::abs(pair.cycles[0] - pair.cycles[1]), 1.0);
  EXPECT_GT(pair.cycles[0], 1.9 * solo.cycles[0]);
  EXPECT_LT(pair.cycles[0], 2.1 * solo.cycles[0]);
  // Fairness shows up in the attribution too: both threads lose about one
  // cycle of fetch bandwidth per instruction, within a few cycles.
  EXPECT_GT(pair.stalls[0].fetch_bandwidth, 0.9 * static_cast<double>(kN));
  EXPECT_GT(pair.stalls[1].fetch_bandwidth, 0.9 * static_cast<double>(kN));
  EXPECT_LE(std::abs(pair.stalls[0].fetch_bandwidth - pair.stalls[1].fetch_bandwidth),
            4.0);
}

TEST(OooCoreTiming, MatchesDoubleReferenceAcrossPowerOfTwoWidths) {
  // The integerization claim, exercised beyond the default width: for any
  // power-of-two width every double the reference core computes is an
  // exact multiple of 1/width, so ticks/width must reproduce it bit-for-bit.
  // The tick core's digest per width is pinned as well.
  struct WidthDigest {
    unsigned width;
    std::uint64_t digest;
  };
  for (const auto [width, golden] : {WidthDigest{1, 0x3ae1274b97f8dfc6ULL},
                                     WidthDigest{2, 0x76ed504c75c72027ULL},
                                     WidthDigest{4, 0x506ebcb375fb39c2ULL},
                                     WidthDigest{8, 0x4b2200f1eb7f381aULL},
                                     WidthDigest{16, 0x6827bdb2845e3dfeULL}}) {
    sim::OooConfig cfg;
    cfg.width = width;

    trace::SyntheticInstrGenerator gen_a(trace::profile_by_name("mcf"));
    ScriptedBpu bpu_a{.mispredict_every = 7};
    sim::OooCoreT<ScriptedBpu> tick_core(cfg, &bpu_a, {&gen_a});
    const auto tick = tick_core.run(20'000, 2'000);

    trace::SyntheticInstrGenerator gen_b(trace::profile_by_name("mcf"));
    ScriptedBpu bpu_b{.mispredict_every = 7};
    sim::OooCoreRefT<ScriptedBpu> ref_core(cfg, &bpu_b, {&gen_b});
    const auto ref = ref_core.run(20'000, 2'000);

    EXPECT_EQ(tick.instructions[0], ref.instructions[0]) << "width=" << width;
    EXPECT_EQ(tick.cycles[0], ref.cycles[0]) << "width=" << width;
    EXPECT_EQ(tick.ipc[0], ref.ipc[0]) << "width=" << width;
    EXPECT_EQ(tick.branch_stats[0], ref.branch_stats[0]) << "width=" << width;
    EXPECT_EQ(sim::digest_of(tick), golden)
        << "width=" << width << " digest 0x" << std::hex << sim::digest_of(tick);
  }
}

TEST(OooCoreTiming, NonPowerOfTwoWidthKeepsStatsAndTracksReferenceClosely) {
  // width=3: 1/3 is not representable, so the reference's doubles round
  // while the tick core stays exact. Statistics and instruction counts are
  // timing-independent (identical), and the cycle counts agree to double
  // rounding — documenting that the tick core is the *more* exact one.
  sim::OooConfig cfg;
  cfg.width = 3;

  trace::SyntheticInstrGenerator gen_a(trace::profile_by_name("leela"));
  ScriptedBpu bpu_a{.mispredict_every = 5};
  sim::OooCoreT<ScriptedBpu> tick_core(cfg, &bpu_a, {&gen_a});
  const auto tick = tick_core.run(10'000, 1'000);

  trace::SyntheticInstrGenerator gen_b(trace::profile_by_name("leela"));
  ScriptedBpu bpu_b{.mispredict_every = 5};
  sim::OooCoreRefT<ScriptedBpu> ref_core(cfg, &bpu_b, {&gen_b});
  const auto ref = ref_core.run(10'000, 1'000);

  EXPECT_EQ(tick.instructions[0], ref.instructions[0]);
  EXPECT_EQ(tick.branch_stats[0], ref.branch_stats[0]);
  EXPECT_NEAR(tick.cycles[0] / ref.cycles[0], 1.0, 1e-9);
  EXPECT_EQ(sim::digest_of(tick), 0x927069a82e13d62aULL)
      << "digest 0x" << std::hex << sim::digest_of(tick);
}

TEST(OooCoreTiming, StallAttributionIsBoundedAndDeterministic) {
  // Attribution sanity on a real workload. Counters accumulate per
  // instruction (in-flight instructions overlap), so the valid bound is
  // per-instruction: no instruction can wait longer than the whole
  // measured window. And the whole breakdown must be exactly reproducible.
  const auto run_once = [] {
    trace::SyntheticInstrGenerator gen(trace::profile_by_name("mcf"));
    ScriptedBpu bpu{.mispredict_every = 9};
    sim::OooCoreT<ScriptedBpu> core({}, &bpu, {&gen});
    return core.run(20'000, 2'000);
  };
  const auto r = run_once();
  const auto& s = r.stalls[0];
  const double per_instr_bound =
      static_cast<double>(r.instructions[0]) * r.cycles[0];
  for (const double v :
       {s.fetch_bandwidth, s.redirect, s.rob, s.iq, s.lq, s.sq}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, per_instr_bound);
  }
  EXPECT_GT(s.redirect, 0.0) << "a 1-in-9 mispredict stream must redirect";
  EXPECT_EQ(run_once().stalls[0], s) << "integer ticks: exactly reproducible";
}

// --- What ends a run before warm-up + budget -------------------------------
// A stream that runs dry stops its thread for good; the others keep their
// round-robin order. Each case runs the tick core twice (zero-copy block
// stream and record-by-record stream over the same instructions) and the
// double reference core once, requires field-by-field agreement, and pins
// the tick core's digest (stalls and cache counters included).

/// The tick core's chunk length J, which the boundary rows are placed
/// around (their digests were recorded with J = 256).
constexpr std::uint64_t kJ = sim::OooCoreT<>::kChunk;

using TracePtr = std::shared_ptr<const trace::InstrTrace>;

TracePtr finite_trace(const char* profile, std::uint64_t n) {
  return trace::generate_instr_trace(trace::profile_by_name(profile), n);
}

std::vector<InstrRecord> records_of(const TracePtr& tr) {
  std::vector<InstrRecord> recs;
  for (std::size_t i = 0; i < tr->size(); ++i) recs.push_back(tr->block.record(i));
  return recs;
}

sim::OooResult run_finite(const std::vector<TracePtr>& traces, std::uint64_t budget,
                          std::uint64_t warmup, const std::string& label) {
  constexpr std::uint64_t kMispredictEvery = 7;
  std::vector<trace::InstrTraceStream> blocks;
  std::vector<ScriptedStream> records;
  std::vector<trace::InstrTraceStream> ref_streams;
  for (const TracePtr& tr : traces) {
    blocks.emplace_back(tr);
    records.emplace_back(records_of(tr));
    ref_streams.emplace_back(tr);
  }
  const auto ptrs = [](auto& streams) {
    std::vector<trace::InstrStream*> v;
    for (auto& s : streams) v.push_back(&s);
    return v;
  };

  ScriptedBpu bpu_block{.mispredict_every = kMispredictEvery};
  const sim::OooResult tick =
      sim::run_ooo({}, bpu_block, ptrs(blocks), budget, warmup);
  ScriptedBpu bpu_record{.mispredict_every = kMispredictEvery};
  const sim::OooResult tick_records =
      sim::run_ooo({}, bpu_record, ptrs(records), budget, warmup);
  ScriptedBpu bpu_ref{.mispredict_every = kMispredictEvery};
  const sim::OooResult ref =
      sim::run_ooo_ref({}, bpu_ref, ptrs(ref_streams), budget, warmup);

  EXPECT_EQ(sim::digest_of(tick), sim::digest_of(tick_records)) << label;
  EXPECT_EQ(bpu_block.accesses, bpu_ref.accesses) << label;
  EXPECT_EQ(tick.threads, ref.threads) << label;
  for (unsigned t = 0; t < tick.threads; ++t) {
    EXPECT_EQ(tick.instructions[t], ref.instructions[t]) << label << " t=" << t;
    EXPECT_EQ(tick.cycles[t], ref.cycles[t]) << label << " t=" << t;
    EXPECT_EQ(tick.ipc[t], ref.ipc[t]) << label << " t=" << t;
    EXPECT_EQ(tick.branch_stats[t], ref.branch_stats[t]) << label << " t=" << t;
  }
  EXPECT_EQ(tick.cache, ref.cache) << label;
  return tick;
}

TEST(OooCoreTiming, StreamEndingDuringWarmupMeasuresNothing) {
  const auto r = run_finite({finite_trace("mcf", 700)}, 2'000, 1'000, "dry in warm-up");
  EXPECT_EQ(sim::digest_of(r), 0xd0f0daa8cc31b9fdULL) << std::hex << sim::digest_of(r);
  EXPECT_EQ(r.instructions[0], 0u);
  EXPECT_EQ(r.cycles[0], 1.0);
  EXPECT_EQ(r.branch_stats[0].branches, 0u);
  EXPECT_EQ(r.stalls[0], sim::OooThreadStalls{});
}

TEST(OooCoreTiming, StreamEndingMidMeasurementStopsTheThread) {
  const auto r = run_finite({finite_trace("mcf", 2'500)}, 5'000, 1'000, "dry mid-measurement");
  EXPECT_EQ(sim::digest_of(r), 0x4b26ae5782274734ULL) << std::hex << sim::digest_of(r);
  EXPECT_EQ(r.instructions[0], 1'500u);
}

TEST(OooCoreTiming, SmtSecondThreadRunningDryLeavesTheFirstRunning) {
  const auto r = run_finite({finite_trace("mcf", 6'000), finite_trace("leela", 2'600)}, 4'000,
                            1'000, "SMT, thread 1 dry");
  EXPECT_EQ(sim::digest_of(r), 0x95d31491f8939b71ULL) << std::hex << sim::digest_of(r);
  EXPECT_EQ(r.instructions[0], 4'000u);
  EXPECT_EQ(r.instructions[1], 1'600u);
}

TEST(OooCoreTiming, SmtFirstThreadRunningDryLeavesTheSecondRunning) {
  const auto r = run_finite({finite_trace("leela", 1'900), finite_trace("mcf", 6'000)}, 4'000,
                            1'000, "SMT, thread 0 dry");
  EXPECT_EQ(sim::digest_of(r), 0xc8abb8e968031790ULL) << std::hex << sim::digest_of(r);
  EXPECT_EQ(r.instructions[0], 900u);
  EXPECT_EQ(r.instructions[1], 4'000u);
}

TEST(OooCoreTiming, WarmupAndBudgetAroundChunkBoundaries) {
  // Warm-up and budget of 0, 1, J-1, J and J+1 instructions, each against
  // a budget (or warm-up) that is not a multiple of J; plus two SMT rows.
  struct Row {
    std::uint64_t warmup, budget;
    unsigned threads;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {0, 0, 1, 0xf712e31fd04f90d9ULL},
      {0, 3 * kJ + 7, 1, 0x3cd908203b4e1634ULL},
      {1, 3 * kJ + 7, 1, 0x83048272cd3fda8cULL},
      {kJ - 1, 3 * kJ + 7, 1, 0x6484ed8201bf983dULL},
      {kJ, 3 * kJ + 7, 1, 0x417d07a2ec913112ULL},
      {kJ + 1, 3 * kJ + 7, 1, 0xc09d42dbd464d092ULL},
      {2 * kJ + 5, 0, 1, 0x542615e88a4996f1ULL},
      {2 * kJ + 5, 1, 1, 0x637ee5804f17357dULL},
      {2 * kJ + 5, kJ - 1, 1, 0x4b1fc1a00f125d27ULL},
      {2 * kJ + 5, kJ, 1, 0x568015c6991b9b6eULL},
      {2 * kJ + 5, kJ + 1, 1, 0x769f70a4ec6e57ecULL},
      {kJ + 1, kJ - 1, 2, 0x84888ed77ad87462ULL},
      {kJ, kJ + 1, 2, 0xbb01e924ed9af654ULL},
  };
  const TracePtr mcf = finite_trace("mcf", 6 * kJ);
  const TracePtr bwaves = finite_trace("bwaves", 6 * kJ);
  for (const Row& row : rows) {
    std::vector<TracePtr> traces(row.threads, mcf);
    if (row.threads == 2) traces[1] = bwaves;
    const std::string label = "warmup=" + std::to_string(row.warmup) +
                              " budget=" + std::to_string(row.budget) +
                              " threads=" + std::to_string(row.threads);
    const std::uint64_t d = sim::digest_of(run_finite(traces, row.budget, row.warmup, label));
    EXPECT_EQ(d, row.digest) << label << " digest 0x" << std::hex << d;
  }
}

TEST(OooCoreTiming, ArchitecturalRegisterCountIsNamed) {
  // The scoreboard is sized by the named constant, not a magic 33; slot 0
  // is the "no dependency" register.
  EXPECT_EQ(sim::kNumArchRegs, 32u);
  // A record using the highest architectural register is legal.
  InstrRecord r = alu();
  r.dst = sim::kNumArchRegs;
  r.src1 = sim::kNumArchRegs;
  ScriptedStream stream({r, alu()});
  ScriptedBpu bpu{};
  sim::OooCoreT<ScriptedBpu> core({}, &bpu, {&stream});
  const auto res = core.run(2, 0);
  EXPECT_EQ(res.instructions[0], 2u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(OooCoreDeathTest, OutOfRangeTraceRegisterAssertsInDebug) {
  // A corrupt trace record (register index beyond kNumArchRegs) must fail
  // the Debug bounds check instead of reading past the scoreboard.
  InstrRecord r = alu();
  r.src1 = static_cast<std::uint8_t>(sim::kNumArchRegs + 1);
  ScriptedStream stream({r});
  ScriptedBpu bpu{};
  sim::OooCoreT<ScriptedBpu> core({}, &bpu, {&stream});
  EXPECT_DEATH(core.run(1, 0), "kNumArchRegs");
}
#endif

}  // namespace
}  // namespace stbpu
