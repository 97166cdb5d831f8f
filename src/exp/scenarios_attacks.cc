// Attack-execution scenarios: the Table I attack surface, the mechanism
// ablation study, and the §VI empirical equation validation on scaled
// structures. Every grid point wires its own predictor/target, so points
// are pool- and shard-safe.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "analysis/equations.h"
#include "attacks/brute.h"
#include "attacks/dos.h"
#include "attacks/gem.h"
#include "attacks/scaled.h"
#include "attacks/table1.h"
#include "bpu/direction.h"
#include "bpu/predictor.h"
#include "core/monitor.h"
#include "core/stbpu_mapping.h"
#include "exp/scenarios_internal.h"
#include "models/engine.h"
#include "models/models.h"

namespace stbpu::exp {

namespace {

unsigned attack_trials(const Scale& scale) { return scale.paper ? 512 : 128; }

// ---------------------------------------------------------------------------
// table1_attack_surface — Table I, executed cell by cell.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kGadget = 0x0000'1122'3344ULL;

struct Table1Cell {
  const char* cls;  ///< class label (legacy trailing-space formatting kept)
};
constexpr Table1Cell kTable1Cells[] = {
    {"RB-HE BTB "}, {"RB-HE PHT "}, {"RB-HE RSB "}, {"RB-AE PHT "},
    {"RB-AE BTB "}, {"RB-AE RSB "}, {"RB same-AS"}, {"EB-HE BTB "},
    {"EB-AE BTB "}, {"EB-HE RSB "}, {"EB-AE RSB "},
};
constexpr std::size_t kNumTable1Cells = sizeof(kTable1Cells) / sizeof(kTable1Cells[0]);

attacks::AttackResult run_table1_cell(std::size_t cell, bpu::IPredictor& b,
                                      unsigned trials) {
  // Seeds follow the legacy bench's 1..11 ordering so results stay
  // byte-comparable across the refactor.
  switch (cell) {
    case 0: return attacks::btb_reuse_home(b, trials, 1);
    case 1: return attacks::pht_reuse_home(b, trials, 2);
    case 2: return attacks::rsb_reuse_home(b, trials, 3);
    case 3: return attacks::pht_reuse_away(b, trials, 4);
    case 4: return attacks::btb_injection_away(b, trials, 5, kGadget);
    case 5: return attacks::rsb_injection_away(b, trials, 6, kGadget);
    case 6: return attacks::same_address_space_trojan(b, trials, 7, kGadget);
    case 7: return attacks::btb_eviction_home(b, trials, 8);
    case 8: return attacks::btb_eviction_away(b, trials, 9);
    case 9: return attacks::rsb_eviction_home(b, trials, 10);
    default: return attacks::rsb_eviction_away(b, trials, 11);
  }
}

constexpr models::ModelKind kTable1Kinds[] = {
    models::ModelKind::kUnprotected, models::ModelKind::kUcode1,
    models::ModelKind::kConservative, models::ModelKind::kStbpu,
    models::ModelKind::kCibpu,        models::ModelKind::kXorIsolation};
constexpr const char* kTable1KindNames[] = {"baseline", "ucode1", "conserv",
                                            "STBPU",    "CIBPU",  "XORiso"};
constexpr std::size_t kNumTable1Kinds = sizeof(kTable1Kinds) / sizeof(kTable1Kinds[0]);

std::string trimmed(const char* s) {
  std::string t = s;
  while (!t.empty() && t.back() == ' ') t.pop_back();
  return t;
}

class Table1Scenario final : public ScenarioBase {
 public:
  Table1Scenario()
      : ScenarioBase("table1_attack_surface",
                     "Table I: collision-based attack surface, executed") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const auto& cell : kTable1Cells) {
      for (const char* k : kTable1KindNames) {
        labels.push_back(trimmed(cell.cls) + "/" + k);
      }
    }
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const std::size_t cell = index / kNumTable1Kinds;
    const unsigned k = static_cast<unsigned>(index % kNumTable1Kinds);
    const auto mspec = apply_spec_overrides({.model = kTable1Kinds[k]}, spec);
    auto model = models::make_engine(mspec);
    const auto r = run_table1_cell(cell, *model, attack_trials(spec.scale));
    PointResult p;
    p.set("name", r.name)
        .set("success_rate", r.success_rate)
        .set("succeeds", r.success ? "true" : "false");
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    // One output row per attack; only cells whose per-model points are all
    // selected produce a complete legacy row.
    for (std::size_t cell = 0; cell < kNumTable1Cells; ++cell) {
      std::string name;
      std::vector<Field> fields;
      fields.push_back({"class", Value(kTable1Cells[cell].cls)});
      bool complete = true;
      for (unsigned k = 0; k < kNumTable1Kinds; ++k) {
        const std::size_t index = cell * kNumTable1Kinds + k;
        if (!spec.selected(index)) {
          complete = false;
          break;
        }
        const PointResult& p = points[index];
        if (k == 0) name = p.str("name");
        fields.push_back({std::string(kTable1KindNames[k]) + "_success_rate",
                          Value(p.num("success_rate"))});
        fields.push_back(
            {std::string(kTable1KindNames[k]) + "_succeeds", Value(p.str("succeeds"))});
      }
      if (!complete) continue;
      Row& row = out.rows.emplace_back(name);
      row.fields = std::move(fields);
    }
    out.meta.push_back({"trials", Value(std::uint64_t{attack_trials(spec.scale)})});
    return out;
  }
};

// ---------------------------------------------------------------------------
// ablation — which STBPU mechanism stops which attack.
// ---------------------------------------------------------------------------

/// ψ-remapping without φ-encryption: the STBPU mapping with the
/// baseline's plaintext target codec.
class RemapOnlyMapping final : public core::StbpuMappingLogic {
 public:
  using StbpuMappingLogic::StbpuMappingLogic;
  std::uint64_t encode_target(std::uint64_t t, const bpu::ExecContext&) const {
    return t & 0xFFFF'FFFFULL;  // plaintext store
  }
  std::uint64_t decode_target(std::uint64_t ip, std::uint64_t s,
                              const bpu::ExecContext&) const {
    return (ip & 0xFFFF'0000'0000ULL) | (s & 0xFFFF'FFFFULL);
  }
};

/// φ-encryption on top of the legacy (deterministic) index mapping.
class EncryptOnlyMapping final : public bpu::BaselineMappingLogic {
 public:
  explicit EncryptOnlyMapping(core::STManager* stm) : stm_(stm) {}
  std::uint64_t encode_target(std::uint64_t t, const bpu::ExecContext& c) const {
    return (t & 0xFFFF'FFFFULL) ^ stm_->token(c).phi;
  }
  std::uint64_t decode_target(std::uint64_t ip, std::uint64_t s,
                              const bpu::ExecContext& c) const {
    return (ip & 0xFFFF'0000'0000ULL) | ((s ^ stm_->token(c).phi) & 0xFFFF'FFFFULL);
  }

 private:
  core::STManager* stm_;
};

constexpr const char* kVariantNames[] = {"full STBPU", "remap only (no phi)",
                                         "encrypt only (no psi)", "no monitor"};
constexpr const char* kAblationJobs[] = {"spectre_rsb", "branchscope", "brute_force"};

attacks::AttackTarget make_variant(unsigned which) {
  attacks::AttackTarget v;
  v.stm = std::make_unique<core::STManager>(0x1234);
  const bpu::CorePredictorConfig cfg;
  switch (which) {
    case 0:
      v.monitor = std::make_unique<core::EventMonitor>(
          v.stm.get(), core::MonitorConfig::from_difficulty(0.05, false));
      v.build(cfg, core::StbpuMappingLogic(v.stm.get()));
      break;
    case 1:
      v.build(cfg, RemapOnlyMapping(v.stm.get()));
      break;
    case 2:
      v.build(cfg, EncryptOnlyMapping(v.stm.get()));
      break;
    default:
      v.build(cfg, core::StbpuMappingLogic(v.stm.get()));
      break;
  }
  return v;
}

class AblationScenario final : public ScenarioBase {
 public:
  AblationScenario()
      : ScenarioBase("ablation", "Ablation: which STBPU mechanism stops which attack") {}

  std::vector<std::string> point_labels(const ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const char* variant : kVariantNames) {
      for (const char* job : kAblationJobs) {
        labels.push_back(std::string(variant) + "/" + job);
      }
    }
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const unsigned which = static_cast<unsigned>(index / 3);
    const unsigned job = static_cast<unsigned>(index % 3);
    const unsigned trials = attack_trials(spec.scale);
    auto v = make_variant(which);
    PointResult p;
    if (job == 0) {
      const auto r = attacks::rsb_injection_away(*v.predictor, trials, 6, kGadget);
      p.set("success_rate", r.success_rate).set("success", r.success ? 1 : 0);
    } else if (job == 1) {
      const auto r = attacks::pht_reuse_home(*v.predictor, trials, 2);
      p.set("success_rate", r.success_rate).set("success", r.success ? 1 : 0);
    } else {
      attacks::ReuseSearchConfig cfg;
      cfg.max_set_size = spec.scale.paper ? 400'000 : 60'000;
      cfg.internal_collision_checks = false;
      (void)attacks::reuse_collision_search(*v.predictor, cfg);
      p.set("rotations", std::uint64_t{v.stm->rerandomizations()});
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    for (unsigned which = 0; which < 4; ++which) {
      const std::size_t base = which * std::size_t{3};
      if (!spec.selected(base) || !spec.selected(base + 1) || !spec.selected(base + 2)) {
        continue;
      }
      out.rows.emplace_back(kVariantNames[which])
          .set("spectre_rsb_success_rate", points[base].num("success_rate"))
          .set("branchscope_success_rate", points[base + 1].num("success_rate"))
          .set("rotations", points[base + 2].u64("rotations"));
    }
    out.meta.push_back({"trials", Value(std::uint64_t{attack_trials(spec.scale)})});
    return out;
  }
};

// ---------------------------------------------------------------------------
// sec6_empirical — Eq. (2)/(4) validated against scaled structures.
// ---------------------------------------------------------------------------

constexpr attacks::ScaledGeometry kGeoms[] = {
    {.set_bits = 3, .tag_bits = 3, .offset_bits = 1, .ways = 4},
    {.set_bits = 4, .tag_bits = 3, .offset_bits = 1, .ways = 4},
    {.set_bits = 4, .tag_bits = 4, .offset_bits = 1, .ways = 8},
    {.set_bits = 5, .tag_bits = 4, .offset_bits = 2, .ways = 8},
};
constexpr std::size_t kNumGeoms = sizeof(kGeoms) / sizeof(kGeoms[0]);

unsigned empirical_reps(const Scale& scale) { return scale.paper ? 15 : 7; }

std::string geom_label(const attacks::ScaledGeometry& g) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "reuse_I%llu_T%llu_O%llu_W%u",
                static_cast<unsigned long long>(g.sets()),
                static_cast<unsigned long long>(g.tag_space()),
                static_cast<unsigned long long>(g.offset_space()), g.ways);
  return buf;
}

class Sec6EmpiricalScenario final : public ScenarioBase {
 public:
  Sec6EmpiricalScenario()
      : ScenarioBase("sec6_empirical",
                     "Section VI: empirical equation validation on scaled "
                     "structures") {}

  std::vector<std::string> point_labels(const ExperimentSpec& spec) const override {
    std::vector<std::string> labels;
    const unsigned reps = empirical_reps(spec.scale);
    for (const auto& g : kGeoms) {
      for (unsigned rep = 0; rep < reps; ++rep) {
        labels.push_back(geom_label(g) + "/rep" + std::to_string(rep));
      }
    }
    labels.emplace_back("monitor_race");
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const unsigned reps = empirical_reps(spec.scale);
    PointResult p;
    if (index < kNumGeoms * std::size_t{reps}) {
      const auto& g = kGeoms[index / reps];
      const unsigned rep = static_cast<unsigned>(index % reps);
      auto target = attacks::make_scaled_target(g, /*stbpu=*/true, 1000 + rep);
      attacks::ReuseSearchConfig cfg;
      cfg.seed = 77 + rep;
      cfg.max_set_size = 64 * g.ito();
      const auto r = attacks::reuse_collision_search(*target.predictor, cfg);
      p.set("found", r.found ? 1 : 0)
          .set("mispredictions", std::uint64_t{r.mispredictions})
          .set("set_size", std::uint64_t{r.set_size});
    } else {
      // The monitor wins the race: GEM against a scaled STBPU whose
      // eviction threshold is r=0.05 of the structure's binding complexity.
      const attacks::ScaledGeometry g{
          .set_bits = 6, .tag_bits = 5, .offset_bits = 2, .ways = 8};
      analysis::BtbGeometry eq;
      eq.sets = static_cast<double>(g.sets());
      eq.ways = g.ways;
      core::MonitorConfig mc;
      mc.eviction_threshold =
          static_cast<std::uint64_t>(0.05 * analysis::gem_eviction_cost(eq, 0.5));
      mc.misprediction_threshold = 1'000'000;
      auto target = attacks::make_scaled_target(g, /*stbpu=*/true, 99, &mc);
      attacks::GemConfig cfg;
      cfg.ways = g.ways;
      cfg.sets_hint = static_cast<unsigned>(g.sets());
      const auto r = attacks::gem_eviction_set(*target.predictor, 0x0000'2345'6780ULL, cfg);
      p.set("evictions", std::uint64_t{r.evictions})
          .set("rotations", std::uint64_t{target.stm->rerandomizations()});
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const unsigned reps = empirical_reps(spec.scale);
    for (std::size_t gi = 0; gi < kNumGeoms; ++gi) {
      std::vector<std::uint64_t> misp, sizes;
      bool complete = true;
      for (unsigned rep = 0; rep < reps; ++rep) {
        const std::size_t index = gi * reps + rep;
        if (!spec.selected(index)) {
          complete = false;
          break;
        }
        const PointResult& p = points[index];
        const Value* found = p.find("found");
        if (found != nullptr && found->int_value() != 0) {
          misp.push_back(p.u64("mispredictions"));
          sizes.push_back(p.u64("set_size"));
        }
      }
      if (!complete) continue;
      std::sort(misp.begin(), misp.end());
      std::sort(sizes.begin(), sizes.end());
      const auto& g = kGeoms[gi];
      analysis::BtbGeometry eq;
      eq.sets = static_cast<double>(g.sets());
      eq.tag_space = static_cast<double>(g.tag_space());
      eq.offset_space = static_cast<double>(g.offset_space());
      eq.ways = g.ways;
      const auto predicted = analysis::btb_reuse_cost(eq);
      out.rows.emplace_back(geom_label(g))
          .set("ito", std::uint64_t{g.ito()})
          .set("measured_mispredictions",
               misp.empty() ? std::uint64_t{0} : misp[misp.size() / 2])
          .set("equation_mispredictions", predicted.mispredictions_m)
          .set("measured_set_size",
               sizes.empty() ? std::uint64_t{0} : sizes[sizes.size() / 2])
          .set("equation_set_size", predicted.set_size_n);
    }
    const std::size_t race = kNumGeoms * std::size_t{reps};
    if (spec.selected(race)) {
      out.rows.emplace_back("monitor_race")
          .set("evictions", points[race].u64("evictions"))
          .set("rotations", points[race].u64("rotations"));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// attack_matrix — the rival-defense study: every collision/DoS attack
// against every registered defense arm (tests/exp/attack_matrix_test.cc
// pins the outcomes).
// ---------------------------------------------------------------------------

constexpr const char* kMatrixAttackNames[] = {"brute_reuse", "gem_btb", "dos_eviction",
                                              "dos_reuse"};
constexpr std::size_t kNumMatrixAttacks =
    sizeof(kMatrixAttackNames) / sizeof(kMatrixAttackNames[0]);

/// The matrix's arm axis after the spec's `arms` filter (names validated at
/// spec-parse time, so an unknown name never reaches this point).
std::vector<models::ModelKind> matrix_arms(const ExperimentSpec& spec) {
  constexpr models::ModelKind kAll[] = {
      models::ModelKind::kUnprotected, models::ModelKind::kStbpu,
      models::ModelKind::kCibpu, models::ModelKind::kXorIsolation};
  std::vector<models::ModelKind> arms;
  for (const models::ModelKind kind : kAll) {
    if (spec.arms.empty()) {
      arms.push_back(kind);
      continue;
    }
    const std::string name = models::to_string(kind);
    for (const std::string& a : spec.arms) {
      if (a == name) {
        arms.push_back(kind);
        break;
      }
    }
  }
  return arms;
}

class AttackMatrixScenario final : public ScenarioBase {
 public:
  AttackMatrixScenario()
      : ScenarioBase("attack_matrix",
                     "Rival-defense matrix: collision/DoS attacks vs every "
                     "defense arm") {}

  std::vector<std::string> point_labels(const ExperimentSpec& spec) const override {
    std::vector<std::string> labels;
    const auto arms = matrix_arms(spec);
    for (const char* attack : kMatrixAttackNames) {
      for (const models::ModelKind kind : arms) {
        labels.push_back(std::string(attack) + "/" + models::to_string(kind));
      }
    }
    return labels;
  }

  PointResult run_point(const ExperimentSpec& spec, std::size_t index) const override {
    const auto arms = matrix_arms(spec);
    const std::size_t attack = index / arms.size();
    const models::ModelKind kind = arms[index % arms.size()];
    const auto mspec = apply_spec_overrides(
        {.model = kind, .direction = models::DirectionKind::kSklCond}, spec);
    PointResult p;
    p.set("model", models::to_string(kind));
    switch (attack) {
      case 0: {  // brute-force reuse-collision search (§VI-A2)
        attacks::ReuseSearchConfig cfg;
        cfg.max_set_size = spec.scale.paper ? 120'000 : 20'000;
        cfg.internal_collision_checks = false;
        auto engine = models::make_engine(mspec);
        const auto re = attacks::reuse_collision_search(*engine, cfg);
        p.set("succeeds", re.found ? "true" : "false")
            .set("set_size", std::uint64_t{re.set_size})
            .set("mispredictions", std::uint64_t{re.mispredictions})
            .set("evictions", std::uint64_t{re.evictions})
            .set("branches", std::uint64_t{re.branches})
            .set("rerandomizations", models::engine_rerandomizations(*engine));
        break;
      }
      case 1: {  // GEM eviction-set construction (§VI-A4)
        const attacks::GemConfig cfg;
        auto engine = models::make_engine(mspec);
        const auto re = attacks::gem_eviction_set(*engine, 0x0000'2345'6780ULL, cfg);
        p.set("succeeds", re.success ? "true" : "false")
            .set("eviction_set_size", std::uint64_t{re.eviction_set.size()})
            .set("rounds", std::uint64_t{re.rounds})
            .set("probes", std::uint64_t{re.probes})
            .set("evictions", std::uint64_t{re.evictions})
            .set("branches", std::uint64_t{re.branches})
            .set("rerandomizations", models::engine_rerandomizations(*engine));
        break;
      }
      default: {  // DoS: eviction-based (targeted) or reuse-based (§VI-A6)
        attacks::DosConfig cfg;
        cfg.rounds = spec.scale.paper ? 2000 : 500;
        auto engine_clean = models::make_engine(mspec);
        auto engine_attacked = models::make_engine(mspec);
        const auto re = attack == 2 ? attacks::dos_eviction(*engine_clean, *engine_attacked,
                                                            cfg, /*targeted=*/true)
                                    : attacks::dos_reuse(*engine_clean, *engine_attacked, cfg);
        // A DoS "succeeds" when it costs the victim more than five points
        // of prediction accuracy.
        p.set("succeeds", re.degradation() > 0.05 ? "true" : "false")
            .set("clean_accuracy", re.victim_oae_clean)
            .set("attacked_accuracy", re.victim_oae_attacked)
            .set("degradation", re.degradation())
            .set("attacker_branches", std::uint64_t{re.attacker_branches})
            .set("rerandomizations", models::engine_rerandomizations(*engine_attacked));
        break;
      }
    }
    return p;
  }

  ScenarioOutput aggregate(const ExperimentSpec& spec,
                           const std::vector<PointResult>& points) const override {
    ScenarioOutput out;
    const auto arms = matrix_arms(spec);
    // One row per attack, one `<arm>_`-prefixed field group per selected
    // arm (Table I style: the three-way comparison reads across a row).
    for (std::size_t attack = 0; attack < kNumMatrixAttacks; ++attack) {
      Row& row = out.rows.emplace_back(kMatrixAttackNames[attack]);
      for (std::size_t ai = 0; ai < arms.size(); ++ai) {
        const std::size_t index = attack * arms.size() + ai;
        if (!spec.selected(index)) continue;
        const std::string prefix = models::to_string(arms[ai]) + "_";
        for (const Field& f : points[index].fields) {
          if (f.key == "model") continue;
          row.fields.push_back({prefix + f.key, f.value});
        }
      }
    }
    out.meta.push_back({"arms", Value(std::uint64_t{arms.size()})});
    return out;
  }
};

}  // namespace

namespace scenarios {

void register_attacks() {
  register_scenario(new Table1Scenario);
  register_scenario(new AblationScenario);
  register_scenario(new Sec6EmpiricalScenario);
  register_scenario(new AttackMatrixScenario);
}

}  // namespace scenarios

}  // namespace stbpu::exp
