// Trace substrate: profiles registry, generator statistical contracts,
// stream utilities, binary IO.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>

#include "bpu/predictor.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/io.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu::trace {
namespace {

/// A temp-file path unique to the running test and process (ctest runs
/// test cases as parallel processes).
std::string unique_temp_path(const char* suffix) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "." + info->name() + "." +
         std::to_string(::getpid()) + suffix;
}

TEST(Profiles, RegistrySizesMatchPaper) {
  EXPECT_EQ(spec2017_profiles().size(), 23u);       // Figure 3 SPEC block
  EXPECT_EQ(application_profiles().size(), 14u);    // Figure 3 app block
  EXPECT_EQ(figure3_profiles().size(), 37u);
  EXPECT_EQ(figure4_profiles().size(), 18u);        // Figures 4/5 workloads
}

TEST(Profiles, LookupByShortAndNumberedName) {
  EXPECT_EQ(profile_by_name("mcf").name, "mcf");
  EXPECT_EQ(profile_by_name("505.mcf").name, "505.mcf");
  EXPECT_EQ(profile_by_name("apache2_prefork_c128").num_processes, 4u);
  EXPECT_THROW(profile_by_name("no_such_workload"), std::out_of_range);
}

TEST(Profiles, SeedsAreDistinctPerWorkload) {
  std::map<std::uint64_t, std::string> seeds;
  for (const auto& p : figure3_profiles()) {
    const auto [it, inserted] = seeds.emplace(p.seed, p.name);
    EXPECT_TRUE(inserted) << p.name << " shares a seed with " << it->second;
  }
}

TEST(Profiles, BehaviourFractionsAreSane) {
  for (const auto& p : figure3_profiles()) {
    EXPECT_GT(p.biased_frac, 0.0) << p.name;
    EXPECT_LE(p.biased_frac + p.loop_frac + p.pattern_frac, 1.0 + 1e-9) << p.name;
    EXPECT_GT(p.branch_density, 0.0) << p.name;
    EXPECT_LE(p.frac_call + p.frac_direct_jump + p.frac_indirect, 0.5) << p.name;
  }
}

TEST(Generator, DeterministicAndResettable) {
  const auto profile = profile_by_name("mcf");
  SyntheticWorkloadGenerator g1(profile), g2(profile);
  bpu::BranchRecord a, b;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(g1.next(a));
    ASSERT_TRUE(g2.next(b));
    ASSERT_EQ(a.ip, b.ip);
    ASSERT_EQ(a.taken, b.taken);
    ASSERT_EQ(a.target, b.target);
  }
  g1.reset();
  SyntheticWorkloadGenerator g3(profile);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(g1.next(a));
    ASSERT_TRUE(g3.next(b));
    ASSERT_EQ(a.ip, b.ip);
    ASSERT_EQ(a.taken, b.taken);
  }
}

TEST(Generator, AddressesStayWithin48Bits) {
  SyntheticWorkloadGenerator gen(profile_by_name("perlbench"));
  bpu::BranchRecord r;
  for (int i = 0; i < 20000; ++i) {
    gen.next(r);
    EXPECT_LE(r.ip, bpu::kVirtualAddressMask);
    EXPECT_LE(r.target, bpu::kVirtualAddressMask);
  }
}

TEST(Generator, TypeMixTracksProfile) {
  const auto profile = profile_by_name("perlbench");
  SyntheticWorkloadGenerator gen(profile);
  std::map<bpu::BranchType, unsigned> counts;
  bpu::BranchRecord r;
  constexpr unsigned kN = 200'000;
  for (unsigned i = 0; i < kN; ++i) {
    gen.next(r);
    ++counts[r.type];
  }
  const double calls = counts[bpu::BranchType::kDirectCall];
  const double rets = counts[bpu::BranchType::kReturn];
  // Loop bursts dilute non-conditional types relative to the raw profile
  // fraction — allow a wide but meaningful band.
  EXPECT_GT(calls / kN, profile.frac_call * 0.3);
  EXPECT_LT(calls / kN, profile.frac_call * 1.3);
  EXPECT_NEAR(rets / calls, 1.0, 0.25) << "calls and returns must balance";
  EXPECT_GT(counts[bpu::BranchType::kConditional], kN / 2);
  EXPECT_GT(counts[bpu::BranchType::kIndirectJump] +
                counts[bpu::BranchType::kIndirectCall],
            0u);
}

TEST(Generator, ReturnsMatchCallSites) {
  // Every return's target must be a previously-pushed call site + 4.
  SyntheticWorkloadGenerator gen(profile_by_name("povray"));
  std::map<std::uint16_t, std::vector<std::uint64_t>> stacks;
  bpu::BranchRecord r;
  unsigned returns_checked = 0;
  for (int i = 0; i < 100'000; ++i) {
    gen.next(r);
    if (r.ctx.kernel) continue;
    if (is_call(r.type)) {
      stacks[r.ctx.pid].push_back(r.ip + bpu::kBranchInstrLen);
    } else if (r.type == bpu::BranchType::kReturn) {
      auto& st = stacks[r.ctx.pid];
      ASSERT_FALSE(st.empty()) << "return without a call";
      EXPECT_EQ(r.target, st.back());
      st.pop_back();
      ++returns_checked;
    }
  }
  EXPECT_GT(returns_checked, 1000u);
}

TEST(Generator, KernelExcursionsHappenAtProfileRate) {
  const auto profile = profile_by_name("apache2_prefork_c128");
  SyntheticWorkloadGenerator gen(profile);
  bpu::BranchRecord r;
  unsigned kernel = 0;
  constexpr unsigned kN = 100'000;
  for (unsigned i = 0; i < kN; ++i) {
    gen.next(r);
    kernel += r.ctx.kernel;
  }
  // syscall_rate ~1.2% with ~36-branch excursions → roughly 20-50% kernel.
  EXPECT_GT(kernel, kN / 10);
  EXPECT_LT(kernel, kN * 6 / 10);
}

TEST(Generator, ContextSwitchesOccurForMultiProcess) {
  SyntheticWorkloadGenerator gen(profile_by_name("apache2_prefork_c512"));
  bpu::BranchRecord r;
  std::uint16_t last = 0;
  unsigned switches = 0;
  std::map<std::uint16_t, unsigned> pid_seen;
  for (int i = 0; i < 300'000; ++i) {
    gen.next(r);
    ++pid_seen[r.ctx.pid];
    if (last != 0 && r.ctx.pid != last) ++switches;
    last = r.ctx.pid;
  }
  EXPECT_GT(switches, 10u);
  EXPECT_GT(pid_seen.size(), 2u);
}

TEST(Generator, SpecWorkloadsAreComputeDominated) {
  // SPEC profiles model the benchmark plus light background system
  // activity: the benchmark process must dominate execution.
  SyntheticWorkloadGenerator gen(profile_by_name("bwaves"));
  bpu::BranchRecord r;
  std::map<std::uint16_t, unsigned> pids;
  constexpr unsigned kN = 100'000;
  for (unsigned i = 0; i < kN; ++i) {
    gen.next(r);
    ++pids[r.ctx.pid];
  }
  unsigned dominant = 0;
  for (const auto& [pid, count] : pids) dominant = std::max(dominant, count);
  EXPECT_GT(dominant, kN * 8 / 10);
}

TEST(Streams, LimitStreamCaps) {
  SyntheticWorkloadGenerator gen(profile_by_name("mcf"));
  LimitStream limited(&gen, 100);
  bpu::BranchRecord r;
  unsigned n = 0;
  while (limited.next(r)) ++n;
  EXPECT_EQ(n, 100u);
  limited.reset();
  n = 0;
  while (limited.next(r)) ++n;
  EXPECT_EQ(n, 100u);
}

TEST(Streams, VectorStreamReplays) {
  SyntheticWorkloadGenerator gen(profile_by_name("mcf"));
  const auto records = collect(gen, 500);
  VectorStream vs(records);
  bpu::BranchRecord r;
  for (const auto& expected : records) {
    ASSERT_TRUE(vs.next(r));
    EXPECT_EQ(r.ip, expected.ip);
  }
  EXPECT_FALSE(vs.next(r));
}

TEST(TraceIo, RoundTrips) {
  SyntheticWorkloadGenerator gen(profile_by_name("xz"));
  const auto records = collect(gen, 2000);
  const std::string path = unique_temp_path(".trace");
  ASSERT_TRUE(write_trace(path, records));
  const auto loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].ip, records[i].ip);
    EXPECT_EQ(loaded[i].target, records[i].target);
    EXPECT_EQ(loaded[i].type, records[i].type);
    EXPECT_EQ(loaded[i].taken, records[i].taken);
    EXPECT_EQ(loaded[i].ctx, records[i].ctx);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsGarbage) {
  const std::string path = unique_temp_path(".trace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_THROW(read_trace(path), std::runtime_error);
  EXPECT_THROW(read_trace("/nonexistent/file.trace"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(InstrGenerator, BranchDensityTracksProfile) {
  const auto profile = profile_by_name("leela");
  SyntheticInstrGenerator gen(profile);
  InstrRecord r;
  unsigned branches = 0;
  constexpr unsigned kN = 100'000;
  for (unsigned i = 0; i < kN; ++i) {
    gen.next(r);
    branches += r.kind == InstrRecord::Kind::kBranch;
  }
  EXPECT_NEAR(static_cast<double>(branches) / kN, profile.branch_density, 0.05);
}

TEST(InstrGenerator, MemoryOpsCarryAddresses) {
  SyntheticInstrGenerator gen(profile_by_name("mcf"));
  InstrRecord r;
  for (int i = 0; i < 20'000; ++i) {
    gen.next(r);
    if (r.kind == InstrRecord::Kind::kLoad || r.kind == InstrRecord::Kind::kStore) {
      EXPECT_NE(r.mem_addr, 0u);
    }
  }
}

TEST(InstrGenerator, Deterministic) {
  const auto profile = profile_by_name("namd");
  SyntheticInstrGenerator g1(profile), g2(profile);
  InstrRecord a, b;
  for (int i = 0; i < 20'000; ++i) {
    g1.next(a);
    g2.next(b);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    ASSERT_EQ(a.mem_addr, b.mem_addr);
    if (a.kind == InstrRecord::Kind::kBranch) {
      ASSERT_EQ(a.branch.ip, b.branch.ip);
    }
  }
}

}  // namespace
}  // namespace stbpu::trace
