// Devirtualized simulation engine: the same secure-BPU designs as
// models::BpuModel (all seven ModelKind arms), but assembled from concrete
// final types so every mapping and direction-predictor call resolves at
// compile time and inlines into CorePredictorT's access loop. The only
// virtual dispatch left on a branch's path is the single
// IPredictor::access() call at the simulator boundary.
//
// Mapping arms plug in through ONE registration point — the RegisteredArms
// typelist below. Each entry ties a ModelKind to its mapping type and
// structural config; make_engine, the visit_engine typed dispatch and the
// parametrized test/attack harnesses all iterate that list, so adding an
// arm is a one-line edit here (plus a name row in models.cc). Registration
// static_asserts the bpu::MappingCore concept, and the optional
// capabilities (bpu::Invalidatable / RtBatch / StatsReporting) are
// detected per arm — see bpu/mapping.h for the documented contract.
//
// STBPU engines additionally route R1-R4/Rp through the remap memo-cache
// (core/remap_cache.h), exploiting that R outputs are constant between ψ
// re-keys; TAGE's Rt keys are computed per access in one batched mix.
//
// make_engine(spec) mirrors BpuModel::create(spec) exactly — same token
// manager seeding, monitor wiring and switch policy — so both produce
// bit-identical prediction statistics on identical traces
// (tests/integration/engine_equivalence_test.cc asserts this).
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <type_traits>

#include "bpu/direction.h"
#include "bpu/predictor.h"
#include "core/cibpu_mapping.h"
#include "core/monitor.h"
#include "core/remap_cache.h"
#include "core/secret_token.h"
#include "core/xor_isolation_mapping.h"
#include "models/models.h"
#include "perceptron/perceptron.h"
#include "sim/bpu_sim.h"
#include "tage/tage.h"

namespace stbpu::models {

template <class Mapping, class Direction>
class EngineT final : public bpu::IPredictor {
 public:
  /// The engine builds its mapping in place over `stm` (token-keyed
  /// mappings) or default-constructs it. `make_direction` is invoked with
  /// the address of that engine-owned mapping, which is why a factory
  /// callback is taken instead of a ready-made direction predictor.
  template <class DirFactory>
  EngineT(const ModelSpec& spec, const bpu::CorePredictorConfig& cfg,
          std::unique_ptr<core::STManager> stm,
          std::unique_ptr<core::EventMonitor> monitor, DirFactory&& make_direction)
      : spec_(spec),
        stm_(std::move(stm)),
        monitor_(std::move(monitor)),
        mapping_(make_mapping(stm_.get())),
        core_(cfg, &mapping_, make_direction(&mapping_), monitor_.get()),
        name_(to_string(spec.model) + "/" + to_string(spec.direction)) {
    core_.set_name(name_);
  }

  bpu::AccessResult access(const bpu::BranchRecord& rec) override {
    return core_.access(rec);
  }

  /// Read by perfbench/layers.cc; remove with the next benchmark change.
  static constexpr bool kBatchPrecompute = false;
  /// Read by perfbench/layers.cc; remove with the next benchmark change.
  static constexpr std::size_t kPrecomputeWindow = 512;

  void on_switch(const bpu::ExecContext& from, const bpu::ExecContext& to) override {
    // Invalidatable mappings empty their derived state (memo-cache) on
    // context switches — entries are ψ-tagged, so this is belt-and-braces,
    // not a correctness requirement; the flush policy itself is the shared
    // apply_switch_policy so the engine can never drift from BpuModel.
    if constexpr (bpu::Invalidatable<Mapping>) {
      if (from.pid != to.pid) mapping_.invalidate_all();
    }
    if (apply_switch_policy(spec_.model, from, to, core_)) ++flushes_;
  }

  void flush() override { core_.flush(); }
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] const ModelSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bpu::CorePredictorT<Mapping, Direction>& core() noexcept { return core_; }
  [[nodiscard]] Mapping& mapping() noexcept { return mapping_; }
  [[nodiscard]] core::STManager* tokens() noexcept { return stm_.get(); }
  [[nodiscard]] core::EventMonitor* monitor() noexcept { return monitor_.get(); }
  [[nodiscard]] std::uint64_t policy_flushes() const noexcept { return flushes_; }

 private:
  // Returned as a prvalue, so mapping_ is initialized without a copy: the
  // STBPU mapping holds its memo tables inline.
  static Mapping make_mapping(core::STManager* stm) {
    if constexpr (std::is_constructible_v<Mapping, core::STManager*>) {
      return Mapping(stm);
    } else {
      return Mapping{};
    }
  }

  ModelSpec spec_;
  std::unique_ptr<core::STManager> stm_;
  std::unique_ptr<core::EventMonitor> monitor_;
  Mapping mapping_;
  bpu::CorePredictorT<Mapping, Direction> core_;
  std::string name_;
  std::uint64_t flushes_ = 0;
};

/// Build the devirtualized engine for `spec`. Drop-in IPredictor
/// replacement for BpuModel::create(spec) with identical statistics.
[[nodiscard]] std::unique_ptr<bpu::IPredictor> make_engine(const ModelSpec& spec);

// ---------------------------------------------------------------------------
// Mapping-arm registry — the SINGLE registration point for model arms.
// ---------------------------------------------------------------------------

/// One registered arm: ties a ModelKind to its engine mapping type and the
/// structural config make_engine applies. `TokenKeyed` arms get the ST
/// manager + event monitor plumbing and a mapping constructed over the
/// token manager; others default-construct their (stateless) mapping.
/// Registration is where the mapping contract is enforced: an arm whose
/// mapping fails bpu::MappingCore is a named compile error here, not an
/// overload-resolution maze inside the predictors.
template <ModelKind K, class MappingT, bool TokenKeyed, bool PartitionByHart = false,
          unsigned BtbSets = 0>
struct ArmDef {
  static_assert(bpu::MappingCore<MappingT>,
                "registered mapping must implement the nine const mapping "
                "functions of bpu::MappingCore (see bpu/mapping.h)");
  static constexpr ModelKind kKind = K;
  using mapping_type = MappingT;
  static constexpr bool kTokenKeyed = TokenKeyed;
  static constexpr bool kPartitionByHart = PartitionByHart;
  static constexpr unsigned kBtbSets = BtbSets;  ///< 0 = default geometry
};

/// Every model arm make_engine can assemble — ONE line per arm. The
/// factory switch, the visit_engine dispatch, the scenario grids and the
/// parametrized equivalence/attack tests all derive from this list.
using RegisteredArms = std::tuple<
    ArmDef<ModelKind::kUnprotected, bpu::BaselineMappingLogic, false>,
    ArmDef<ModelKind::kUcode1, bpu::BaselineMappingLogic, false>,
    ArmDef<ModelKind::kUcode2, bpu::BaselineMappingLogic, false, true>,
    ArmDef<ModelKind::kConservative, ConservativeMappingLogic, false, true,
           ConservativeMappingLogic::kSets>,
    ArmDef<ModelKind::kStbpu, core::CachedStbpuMapping, true>,
    ArmDef<ModelKind::kCibpu, core::CibpuMappingLogic, true>,
    ArmDef<ModelKind::kXorIsolation, core::XorIsolationMappingLogic, true>>;

namespace detail {

template <class... Ms>
struct MappingTypeList {};

template <class List, class M>
inline constexpr bool list_contains = false;
template <class... Ms, class M>
inline constexpr bool list_contains<MappingTypeList<Ms...>, M> =
    (std::is_same_v<Ms, M> || ...);

template <class List, class M, bool Add>
struct AppendIf {
  using type = List;
};
template <class... Ms, class M>
struct AppendIf<MappingTypeList<Ms...>, M, true> {
  using type = MappingTypeList<Ms..., M>;
};

/// Deduplicated mapping types of RegisteredArms (several arms share
/// BaselineMappingLogic) — the list visit_engine iterates.
template <class List, class... Arms>
struct UniqueMappingsImpl {
  using type = List;
};
template <class List, class Arm, class... Rest>
struct UniqueMappingsImpl<List, Arm, Rest...> {
  using with_arm = typename AppendIf<
      List, typename Arm::mapping_type,
      !list_contains<List, typename Arm::mapping_type>>::type;
  using type = typename UniqueMappingsImpl<with_arm, Rest...>::type;
};

template <class Arms>
struct UniqueMappings;
template <class... Arms>
struct UniqueMappings<std::tuple<Arms...>> {
  using type = typename UniqueMappingsImpl<MappingTypeList<>, Arms...>::type;
};

using UniqueEngineMappings = typename UniqueMappings<RegisteredArms>::type;

/// Visit `engine` as its concrete EngineT type for one mapping family.
/// This lambda holds the ONE generic dynamic_cast of the visit machinery —
/// every registered mapping × direction combination instantiates it; no
/// per-mapping cast lines exist anywhere else.
template <class Mapping, class Fn>
bool visit_engine_mapping(bpu::IPredictor& engine, Fn&& fn) {
  const auto try_one = [&]<class Direction>(std::type_identity<Direction>) {
    auto* typed = dynamic_cast<EngineT<Mapping, Direction>*>(&engine);
    if (typed == nullptr) return false;
    fn(*typed);
    return true;
  };
  return try_one(std::type_identity<bpu::SklCondPredictorT<Mapping>>{}) ||
         try_one(std::type_identity<tage::TagePredictorT<Mapping>>{}) ||
         try_one(std::type_identity<perceptron::PerceptronPredictorT<Mapping>>{});
}

template <class Fn, class... Ms>
bool visit_engine_list(bpu::IPredictor& engine, Fn&& fn, MappingTypeList<Ms...>) {
  return (visit_engine_mapping<Ms>(engine, fn) || ...);
}

}  // namespace detail

/// Typed-dispatch visitor over every engine make_engine can assemble: one
/// dynamic_cast chain per run (driven by the deduplicated RegisteredArms
/// mapping typelist) recovers the concrete EngineT<Mapping, Direction>,
/// after which `fn`'s body compiles against the final type — callers that
/// instantiate the integer-tick sim::OooCoreT (or sim::replay, or the
/// reference sim::OooCoreRefT) on it get a fully devirtualized per-branch
/// path. Returns false when `engine` is a foreign predictor (e.g. the
/// legacy BpuModel); callers then fall back to the interface-typed path.
template <class Fn>
bool visit_engine(bpu::IPredictor& engine, Fn&& fn) {
  return detail::visit_engine_list(engine, fn, detail::UniqueEngineMappings{});
}

/// Remap-cache statistics of an STBPU engine built by make_engine
/// (zeros for non-STBPU engines or foreign predictors).
[[nodiscard]] core::RemapCacheStats engine_remap_cache_stats(const bpu::IPredictor& engine);

/// Event monitor of an STBPU engine built by make_engine (nullptr for
/// non-STBPU engines or foreign predictors).
[[nodiscard]] core::EventMonitor* engine_monitor(bpu::IPredictor& engine);

/// Batched trace replay with the engine's concrete type recovered (one
/// dynamic_cast per run, not per branch): the per-branch access() then
/// devirtualizes and inlines into the replay loop — zero virtual dispatch
/// on the branch path. Falls back to the interface-typed loop for foreign
/// predictors (e.g. legacy BpuModel), where it behaves exactly like
/// sim::replay.
[[nodiscard]] sim::BranchStats replay_engine(bpu::IPredictor& engine,
                                             trace::BranchStream& stream,
                                             const sim::BpuSimOptions& opt = {});

}  // namespace stbpu::models
