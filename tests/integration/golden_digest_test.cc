// Golden digests of the predictor engine. Every registered model arm ×
// direction predictor runs six fixed workloads; each run's statistics are
// folded into one sim::Digest and compared with the checked-in row below.
// The table is the engine's bit-identity oracle: a change that moves any
// counter of any cell fails here and prints the row it now produces.
//
// Columns:
//   replay — perlbench through replay_engine from a materialized
//            VectorStream (zero-copy path). The same profile replayed from
//            a generator stream (SoA batch-refill path) must give the same
//            digest, so it has no column of its own.
//   ooo    — xz through the cycle-level core, engine-typed via
//            for_each_engine.
//   smt    — bwaves + mcf sharing one predictor on the cycle-level core,
//            under aggressive re-keying.
//   rekey  — mcf replay with monitor thresholds of a few events, so
//            token-keyed arms re-key ψ many times mid-trace.
//   storm  — a server profile with frequent context switches and kernel
//            excursions (flush policies, cross-entity memo tagging).
//   server — the stock server profile under aggressive re-keying, so ψ
//            changes both within and between entities.
// Every aggressive run asserts that token-keyed arms really re-keyed.
//
// A mismatch is never fixed by regenerating the table: the new row is
// pasted in only when a change is meant to move the statistics, and the
// change says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "exp/engine_visit.h"
#include "models/engine.h"
#include "models/models.h"
#include "sim/digest.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu {
namespace {

struct GoldenRow {
  const char* model;
  const char* direction;
  std::uint64_t replay, ooo, smt, rekey, storm, server;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"unprotected", "SKLCond",
     0xb7428563fead7dafULL, 0x5b0803d849d4b0e1ULL, 0x35fa655824ed9431ULL, 0xf88244257fb86478ULL, 0x050bdf7da674262eULL,
     0x1dc429c8dc874fd8ULL},
    {"unprotected", "TAGE_SC_L_8KB",
     0x94f8c1f79f198aaaULL, 0x8b2e10e66bd530b7ULL, 0xe49afdedbe37475dULL, 0x7a1998a9a9834f18ULL, 0x290e97043028b3b8ULL,
     0x650ad932f16220feULL},
    {"unprotected", "TAGE_SC_L_64KB",
     0xcddb3ca26cfc21f0ULL, 0x931dc4b603cddf5cULL, 0xe7ea4186ab937d90ULL, 0x97a3392d5339386aULL, 0xe78d842db3d4e5d1ULL,
     0x6deb32f404a2667eULL},
    {"unprotected", "PerceptronBP",
     0x577a5e391eb0a4a1ULL, 0x9299c102e23070f6ULL, 0x3bace0d852db93b3ULL, 0x6c3e0c6580f321f4ULL, 0x861aa8339eea9547ULL,
     0xc34e0301e246405aULL},
    {"ucode1_IBPB+IBRS", "SKLCond",
     0x9169e1039d066e8bULL, 0x53416044cb7a0e9cULL, 0x44708ce87b2329eeULL, 0x306b1be91d0aa332ULL, 0x33d715313d8dc1cdULL,
     0x3e513947ab2e7133ULL},
    {"ucode1_IBPB+IBRS", "TAGE_SC_L_8KB",
     0x14552a01956c33f1ULL, 0x0e1a73bfbd4b6f89ULL, 0xd2ea7deba2261bd1ULL, 0x7ca4b6f574e3c0eeULL, 0x85e1c2afbb16b9afULL,
     0xf05c90b8068480b8ULL},
    {"ucode1_IBPB+IBRS", "TAGE_SC_L_64KB",
     0x08c5727f4b964ff9ULL, 0x18e85db3cded243dULL, 0xda9aa490fa03f174ULL, 0xb1bc309bf3b24e9fULL, 0x6643d09fb380f658ULL,
     0x853c0cad9a8a25ffULL},
    {"ucode1_IBPB+IBRS", "PerceptronBP",
     0xf83ee1d71b20e168ULL, 0x85b5562cd16e9d8cULL, 0xd2731457415bdc44ULL, 0x62291e347f8f6ef5ULL, 0x396051523011fad6ULL,
     0x2c44ddd7f5857d2bULL},
    {"ucode2_IBPB+IBRS+STIBP", "SKLCond",
     0x6e65cb21bb609402ULL, 0x36b2580e01f8c182ULL, 0x3c88850010d4a224ULL, 0xca49cdb7f6d8e86eULL, 0x6420a572ea652493ULL,
     0xaac31e824a9d3c63ULL},
    {"ucode2_IBPB+IBRS+STIBP", "TAGE_SC_L_8KB",
     0xaf8518efff435fedULL, 0xf3caffab5cdd6bfeULL, 0xeec126c4b4f878bdULL, 0xc8e02ef965cb032bULL, 0x3ea3ae5f38199579ULL,
     0x70b961538bd71edfULL},
    {"ucode2_IBPB+IBRS+STIBP", "TAGE_SC_L_64KB",
     0xd2b922cf288c4478ULL, 0x6643649d16968f28ULL, 0x42ba65f9550dca3cULL, 0xbf2585dcb7b82923ULL, 0xe2ba8ee0b9bdc716ULL,
     0x4510f722202dd1cbULL},
    {"ucode2_IBPB+IBRS+STIBP", "PerceptronBP",
     0x9c334708c8a61697ULL, 0x44fc9efcb030ff33ULL, 0xb5d8fb31820d854aULL, 0x2ec62fa6e5f990a2ULL, 0xb869d777b089cbccULL,
     0x04bb58e5b321eafbULL},
    {"conservative", "SKLCond",
     0x964b320f5004eae8ULL, 0x60fbb78fb70d4314ULL, 0x1b589754ef428c43ULL, 0x36cac01abd0ce33fULL, 0xc7fbfe2a61d5d60fULL,
     0xaf79f0cfe5b84a2bULL},
    {"conservative", "TAGE_SC_L_8KB",
     0xf71836d33a3ceb0aULL, 0x527b67bd3b44c4efULL, 0x7e3f80e6671a45e1ULL, 0x89f0acc0e763f9ddULL, 0x074533e1a47ef720ULL,
     0x8bcaf524f5fc7baaULL},
    {"conservative", "TAGE_SC_L_64KB",
     0x520cd2c98bdbc1beULL, 0xb66de2551516a4a9ULL, 0x122f3d998df7a091ULL, 0xb172307dd95e4de1ULL, 0xfa050765cd4dad20ULL,
     0x73130ae56d8c242bULL},
    {"conservative", "PerceptronBP",
     0x092860be5f22e80bULL, 0x7323e3dd5010ea6eULL, 0xdc0205fe19fbd9d9ULL, 0xacf1d44861919d06ULL, 0x39f7b71a79e91c4dULL,
     0x6acec7859c1e558fULL},
    {"STBPU", "SKLCond",
     0xaee49658f466b249ULL, 0x51edd2b20d1ee0f5ULL, 0x0f88b5418f061266ULL, 0xf52e656710811e0dULL, 0x295ee18537e458c8ULL,
     0xfee168d5283a08b1ULL},
    {"STBPU", "TAGE_SC_L_8KB",
     0x9581ca139eab684aULL, 0xe0b496318d211b77ULL, 0x4c77b97246259636ULL, 0x05bbf91cd78931f7ULL, 0x5e04a1e2031dd710ULL,
     0x1bded5df6a82170aULL},
    {"STBPU", "TAGE_SC_L_64KB",
     0x146175f868bf7e49ULL, 0x79987ece5bf9cf90ULL, 0x0b9ea587d55ee9ffULL, 0xcdda2d84e73b9124ULL, 0x46f2a3be84cb05d8ULL,
     0x7053ae744d508fe6ULL},
    {"STBPU", "PerceptronBP",
     0x16f53abebd9d248aULL, 0x7f0bb1aa37260df3ULL, 0xa60b7ac8ff1f8e2fULL, 0xa67646e14a0ac84aULL, 0xd83f7f8c66c632d0ULL,
     0x8c25640675f1e395ULL},
    {"CIBPU", "SKLCond",
     0xaee49658f466b249ULL, 0x51edd2b20d1ee0f5ULL, 0x4a6184c61976806aULL, 0x7d665dce7949991cULL, 0x8ed4e50a432cd12aULL,
     0x3443d412e7d7cf80ULL},
    {"CIBPU", "TAGE_SC_L_8KB",
     0x9581ca139eab684aULL, 0xe0b496318d211b77ULL, 0xa057eaac092f6617ULL, 0xd93a63abd7ee87acULL, 0x45e5bbda769d8c23ULL,
     0x0f036315d571956eULL},
    {"CIBPU", "TAGE_SC_L_64KB",
     0x146175f868bf7e49ULL, 0x79987ece5bf9cf90ULL, 0x842a33e6668ea800ULL, 0xd52ae0ca63eb3840ULL, 0x5010704111e8abdaULL,
     0x841efa273ed4ae3eULL},
    {"CIBPU", "PerceptronBP",
     0x16f53abebd9d248aULL, 0x7f0bb1aa37260df3ULL, 0x1a9fa085d933d9b4ULL, 0x0e9abc56ce8d74c3ULL, 0x4e0de8850e80ececULL,
     0x6b04ce30ada2a8bbULL},
    {"XOR_isolation", "SKLCond",
     0x2e429848ca7dcf33ULL, 0x385171fe3351c55eULL, 0x486ef6b007eb1825ULL, 0xa9b19427cdaf0f90ULL, 0xc971c7a2c2f7928eULL,
     0x885b1f24efe7a433ULL},
    {"XOR_isolation", "TAGE_SC_L_8KB",
     0x6a7f25285ef9d6d3ULL, 0x30d4d0d202b5d8b6ULL, 0x755695e004a54008ULL, 0x9365f795ad82c932ULL, 0x64c2b104087c5529ULL,
     0x0e95c70cd6f6dadcULL},
    {"XOR_isolation", "TAGE_SC_L_64KB",
     0x174a009bf2db1034ULL, 0xf0c573b329807e66ULL, 0x2a18634abf569391ULL, 0xcb37e9a383fe95beULL, 0xbca5f5e0166bb582ULL,
     0x3d9a9b8c51009448ULL},
    {"XOR_isolation", "PerceptronBP",
     0xbb4971b7adc32592ULL, 0x03102107ff6f3d9eULL, 0xefefb8d23a42124fULL, 0xa25e83b125ab2a0bULL, 0x1094ab712bdceec1ULL,
     0x3d4d072bf3369ef5ULL},
};
// clang-format on

struct Cell {
  models::ModelKind model;
  models::DirectionKind direction;
};

void PrintTo(const Cell& c, std::ostream* os) {
  *os << models::to_string(c.model) << "/" << models::to_string(c.direction);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> out;
  for (const auto m : models::all_model_kinds()) {
    for (const auto d : models::all_direction_kinds()) out.push_back({m, d});
  }
  return out;
}

std::string cell_name(const Cell& c) {
  std::string s = models::to_string(c.model) + "_" + models::to_string(c.direction);
  for (char& ch : s) {
    if (ch == '+') ch = '_';
  }
  return s;
}

bool token_keyed(models::ModelKind k) {
  return k == models::ModelKind::kStbpu || k == models::ModelKind::kCibpu ||
         k == models::ModelKind::kXorIsolation;
}

constexpr double kAggressiveR = 1e-5;  // monitor thresholds of a few events

trace::WorkloadProfile storm_profile() {
  trace::WorkloadProfile p = trace::profile_by_name("apache2_prefork_c32");
  p.context_switch_rate = 5e-3;
  p.syscall_rate = 5e-3;
  return p;
}

sim::BranchStats replay(const models::ModelSpec& spec, trace::BranchStream& stream,
                        const sim::BpuSimOptions& opt, std::uint64_t* rekeys = nullptr) {
  auto engine = models::make_engine(spec);
  const sim::BranchStats s = models::replay_engine(*engine, stream, opt);
  if (rekeys != nullptr) *rekeys = models::engine_rerandomizations(*engine);
  return s;
}

sim::OooResult run_core(const models::ModelSpec& spec,
                        std::vector<trace::InstrStream*> threads, std::uint64_t budget,
                        std::uint64_t warmup, std::uint64_t* rekeys = nullptr) {
  sim::OooResult r;
  EXPECT_TRUE(exp::for_each_engine(spec, [&](auto& e) {
    r = sim::run_ooo(sim::OooConfig{}, e, threads, budget, warmup);
    if (rekeys != nullptr) *rekeys = models::engine_rerandomizations(e);
  }));
  return r;
}

class GoldenDigests : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenDigests, EngineMatchesTable) {
  const Cell c = GetParam();
  const models::ModelSpec spec{.model = c.model, .direction = c.direction};
  models::ModelSpec aggressive = spec;
  aggressive.rerand_difficulty_r = kAggressiveR;
  GoldenRow got{};
  const std::string model = models::to_string(c.model);
  const std::string direction = models::to_string(c.direction);

  {
    const trace::WorkloadProfile p = trace::profile_by_name("perlbench");
    const sim::BpuSimOptions opt{.max_branches = 50'000, .warmup_branches = 5'000};
    trace::SyntheticWorkloadGenerator gen(p);
    trace::VectorStream materialized(trace::collect(gen, 55'000));
    got.replay = sim::digest_of(replay(spec, materialized, opt));
    trace::SyntheticWorkloadGenerator live(p);
    EXPECT_EQ(sim::digest_of(replay(spec, live, opt)), got.replay)
        << "generator-stream replay diverges from the materialized replay";
  }
  {
    trace::SyntheticInstrGenerator g(trace::profile_by_name("xz"));
    got.ooo = sim::digest_of(run_core(spec, {&g}, 40'000, 4'000));
  }
  {
    trace::SyntheticInstrGenerator g0(trace::profile_by_name("bwaves"));
    trace::SyntheticInstrGenerator g1(trace::profile_by_name("mcf"));
    std::uint64_t rekeys = 0;
    const sim::OooResult r = run_core(aggressive, {&g0, &g1}, 30'000, 3'000, &rekeys);
    EXPECT_EQ(r.threads, 2u);
    if (token_keyed(c.model)) {
      EXPECT_GT(rekeys, 0u) << "no ψ re-key happened on the SMT pair";
    }
    got.smt = sim::digest_of(r);
  }
  {
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
    std::uint64_t rekeys = 0;
    got.rekey = sim::digest_of(
        replay(aggressive, gen, {.max_branches = 70'000, .warmup_branches = 10'000}, &rekeys));
    if (token_keyed(c.model)) {
      EXPECT_GT(rekeys, 0u) << "no ψ re-key happened";
    }
  }
  {
    trace::SyntheticWorkloadGenerator gen(storm_profile());
    const sim::BranchStats s =
        replay(spec, gen, {.max_branches = 70'000, .warmup_branches = 10'000});
    EXPECT_GT(s.context_switches, 50u);
    got.storm = sim::digest_of(s);
  }
  {
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("apache2_prefork_c32"));
    std::uint64_t rekeys = 0;
    const sim::BranchStats s = replay(
        aggressive, gen, {.max_branches = 70'000, .warmup_branches = 10'000}, &rekeys);
    EXPECT_GT(s.context_switches, 0u);
    if (token_keyed(c.model)) {
      EXPECT_GT(rekeys, 0u) << "no ψ re-key happened on the server profile";
    }
    got.server = sim::digest_of(s);
  }

  const GoldenRow* want = nullptr;
  for (const GoldenRow& row : kGolden) {
    if (model == row.model && direction == row.direction) want = &row;
  }
  const bool match = want != nullptr && want->replay == got.replay &&
                     want->ooo == got.ooo && want->smt == got.smt &&
                     want->rekey == got.rekey && want->storm == got.storm &&
                     want->server == got.server;
  if (!match) {
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", \"%s\",\n     0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL,\n     0x%016" PRIx64 "ULL},",
                  model.c_str(), direction.c_str(), got.replay, got.ooo, got.smt,
                  got.rekey, got.storm, got.server);
    ADD_FAILURE() << (want == nullptr ? "no golden row" : "digest mismatch")
                  << " for " << model << "/" << direction << "; this tree produces:\n"
                  << line;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArms, GoldenDigests, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return cell_name(info.param);
                         });

TEST(GoldenDigestTable, OneRowPerRegisteredCell) {
  EXPECT_EQ(std::size(kGolden), all_cells().size());
}

}  // namespace
}  // namespace stbpu
