// GEM eviction-set construction, brute-force reuse search on scaled
// geometries (empirical Eq. (2) validation), and the DoS attacks.
#include <gtest/gtest.h>

#include "analysis/equations.h"
#include "attacks/brute.h"
#include "attacks/dos.h"
#include "attacks/gem.h"
#include "attacks/scaled.h"
#include "models/engine.h"
#include "models/models.h"

namespace stbpu::attacks {
namespace {

TEST(Gem, BuildsMinimalEvictionSetOnBaseline) {
  auto m = models::make_engine({.model = models::ModelKind::kUnprotected});
  GemConfig cfg;
  cfg.ways = 8;
  cfg.sets_hint = 512;
  const auto r = gem_eviction_set(*m, 0x0000'2345'6780ULL, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.eviction_set.size(), 8u);
  EXPECT_GT(r.evictions, 0u);
}

TEST(Gem, ScaledGeometryStillWorks) {
  const ScaledGeometry g{.set_bits = 4, .tag_bits = 4, .offset_bits = 1, .ways = 4};
  auto target = make_scaled_target(g, /*stbpu=*/false, 1);
  GemConfig cfg;
  cfg.ways = g.ways;
  cfg.sets_hint = static_cast<unsigned>(g.sets());
  const auto r = gem_eviction_set(*target.predictor, 0x0000'2345'6780ULL, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.eviction_set.size(), g.ways);
}

TEST(Gem, StbpuMonitorRotatesStMidConstruction) {
  // With paper thresholds scaled to the shrunken structure, GEM's eviction
  // storm must trip the monitor before it converges usefully.
  const ScaledGeometry g{.set_bits = 6, .tag_bits = 5, .offset_bits = 2, .ways = 8};
  core::MonitorConfig mon;
  mon.misprediction_threshold = 1'000'000;  // isolate the eviction register
  mon.eviction_threshold = 200;
  auto target = make_scaled_target(g, /*stbpu=*/true, 2, &mon);
  GemConfig cfg;
  cfg.ways = g.ways;
  cfg.sets_hint = static_cast<unsigned>(g.sets());
  (void)gem_eviction_set(*target.predictor, 0x0000'2345'6780ULL, cfg);
  EXPECT_GT(target.stm->rerandomizations(), 0u);
}

TEST(BruteReuse, FindsCollisionOnScaledStbpu) {
  // Without a monitor, brute force eventually finds a keyed collision —
  // randomization alone is not cryptographic (paper §V). The point of the
  // measurement is the COST, which Eq. (2) bounds.
  const ScaledGeometry g{.set_bits = 4, .tag_bits = 3, .offset_bits = 1, .ways = 4};
  auto target = make_scaled_target(g, /*stbpu=*/true, 3);
  ReuseSearchConfig cfg;
  cfg.max_set_size = 4 * g.ito();
  const auto r = reuse_collision_search(*target.predictor, cfg);
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.set_size, 1u);
}

TEST(BruteReuse, CostScalesWithGeometry) {
  // Doubling I·T·O must grow the attacker's event bill superlinearly in
  // the measured range (M grows ~quadratically in n per Eq. (2)).
  const ScaledGeometry small{.set_bits = 3, .tag_bits = 3, .offset_bits = 1, .ways = 4};
  const ScaledGeometry large{.set_bits = 5, .tag_bits = 4, .offset_bits = 1, .ways = 4};
  std::uint64_t cost_small = 0, cost_large = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto ts = make_scaled_target(small, true, 100 + seed);
    ReuseSearchConfig cs;
    cs.seed = 900 + seed;
    cs.max_set_size = 16 * small.ito();
    cost_small += reuse_collision_search(*ts.predictor, cs).mispredictions;
    auto tl = make_scaled_target(large, true, 200 + seed);
    ReuseSearchConfig cl;
    cl.seed = 900 + seed;
    cl.max_set_size = 16 * large.ito();
    cost_large += reuse_collision_search(*tl.predictor, cl).mispredictions;
  }
  EXPECT_GT(cost_large, 2 * cost_small);
}

TEST(BruteReuse, EquationBoundsMeasurement) {
  // Empirical median observation count vs Eq. (2) at the same geometry.
  // The closed form uses birthday-scale per-pair factors and deliberately
  // over-estimates (conservative for threshold derivation): the measured
  // count must stay below it but within a bounded factor.
  const ScaledGeometry g{.set_bits = 4, .tag_bits = 3, .offset_bits = 1, .ways = 4};
  analysis::BtbGeometry eq;
  eq.sets = static_cast<double>(g.sets());
  eq.tag_space = static_cast<double>(g.tag_space());
  eq.offset_space = static_cast<double>(g.offset_space());
  eq.ways = g.ways;
  const auto predicted = analysis::btb_reuse_cost(eq);

  std::vector<std::uint64_t> measured;
  for (std::uint64_t seed = 0; seed < 9; ++seed) {
    auto t = make_scaled_target(g, true, 300 + seed);
    ReuseSearchConfig cfg;
    cfg.seed = 500 + seed;
    cfg.max_set_size = 64 * g.ito();
    const auto r = reuse_collision_search(*t.predictor, cfg);
    ASSERT_TRUE(r.found);
    measured.push_back(r.mispredictions);
  }
  std::sort(measured.begin(), measured.end());
  const double median = static_cast<double>(measured[measured.size() / 2]);
  EXPECT_GT(median, predicted.mispredictions_m / 50.0);
  EXPECT_LT(median, predicted.mispredictions_m * 2.0)
      << "Eq. (2) must stay a (conservative) upper estimate";
}

TEST(Dos, TargetedEvictionDegradesBaselineVictim) {
  auto clean = models::make_engine({.model = models::ModelKind::kUnprotected});
  auto attacked = models::make_engine({.model = models::ModelKind::kUnprotected});
  const auto r = dos_eviction(*clean, *attacked, {}, /*targeted=*/true);
  EXPECT_GT(r.victim_oae_clean, 0.95);
  EXPECT_GT(r.degradation(), 0.10) << "a targeted flood must visibly hurt";
}

TEST(Dos, TargetedEvictionLosesAimOnStbpu) {
  auto clean = models::make_engine({.model = models::ModelKind::kStbpu});
  auto attacked = models::make_engine({.model = models::ModelKind::kStbpu});
  const auto r = dos_eviction(*clean, *attacked, {}, /*targeted=*/true);
  auto clean_b = models::make_engine({.model = models::ModelKind::kUnprotected});
  auto attacked_b = models::make_engine({.model = models::ModelKind::kUnprotected});
  const auto rb = dos_eviction(*clean_b, *attacked_b, {}, /*targeted=*/true);
  EXPECT_LT(r.degradation(), rb.degradation())
      << "unknown mapping forces the attacker back to blind flooding";
}

TEST(Dos, ReuseDosPoisonsBaselineButNotStbpu) {
  auto clean = models::make_engine({.model = models::ModelKind::kUnprotected});
  auto attacked = models::make_engine({.model = models::ModelKind::kUnprotected});
  const auto rb = dos_reuse(*clean, *attacked, {});
  EXPECT_GT(rb.degradation(), 0.3)
      << "exact-address poisoning devastates the legacy BPU";

  auto clean_s = models::make_engine({.model = models::ModelKind::kStbpu});
  auto attacked_s = models::make_engine({.model = models::ModelKind::kStbpu});
  const auto rs = dos_reuse(*clean_s, *attacked_s, {});
  EXPECT_LT(rs.degradation(), 0.1)
      << "the attacker's 'collisions' land in its own mapping";
}

TEST(Dos, RivalArmsResistTargetedEvictionAndReusePoisoning) {
  // The rival defenses (CIBPU keyed indexing, XOR per-domain masking) must
  // both blunt the exact-address DoS attacks that devastate the baseline:
  // either the attacker's aim is scrambled (eviction) or its writes land
  // in its own mapping / decode to garbage (reuse).
  for (const auto kind : {models::ModelKind::kCibpu, models::ModelKind::kXorIsolation}) {
    auto clean_e = models::make_engine({.model = kind});
    auto attacked_e = models::make_engine({.model = kind});
    const auto ev = dos_eviction(*clean_e, *attacked_e, {}, /*targeted=*/true);
    EXPECT_GT(ev.victim_oae_clean, 0.95) << models::to_string(kind);
    EXPECT_LT(ev.degradation(), 0.05) << models::to_string(kind);

    auto clean_r = models::make_engine({.model = kind});
    auto attacked_r = models::make_engine({.model = kind});
    const auto ru = dos_reuse(*clean_r, *attacked_r, {});
    EXPECT_LT(ru.degradation(), 0.05) << models::to_string(kind);
  }
}

TEST(Gem, XorIsolationLinearityLeavesGemViable) {
  // XOR masking is a fixed per-domain permutation of sets, so eviction-set
  // construction inside the attacker's own domain works exactly as on the
  // baseline — the honest weakness the three-way matrix reports. CIBPU's
  // keyed per-entity indexing (plus the monitor) breaks the same
  // construction.
  auto xor_m = models::make_engine({.model = models::ModelKind::kXorIsolation});
  const auto rx = gem_eviction_set(*xor_m, 0x0000'2345'6780ULL, {});
  EXPECT_TRUE(rx.success);
  EXPECT_LE(rx.eviction_set.size(), 8u);

  auto cibpu_m = models::make_engine({.model = models::ModelKind::kCibpu});
  const auto rc = gem_eviction_set(*cibpu_m, 0x0000'2345'6780ULL, {});
  EXPECT_FALSE(rc.success);
}

}  // namespace
}  // namespace stbpu::attacks
