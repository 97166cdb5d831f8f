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
// capabilities (bpu::Invalidatable / BatchPrecompute / StatsReporting) are
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

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

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
  /// `make_direction` is invoked with the address of the engine-owned
  /// mapping — the mapping must be addressed *after* it is moved into
  /// place, which is why a factory callback is taken instead of a
  /// ready-made direction predictor.
  template <class DirFactory>
  EngineT(const ModelSpec& spec, const bpu::CorePredictorConfig& cfg,
          std::unique_ptr<core::STManager> stm,
          std::unique_ptr<core::EventMonitor> monitor, Mapping mapping,
          DirFactory&& make_direction)
      : spec_(spec),
        stm_(std::move(stm)),
        monitor_(std::move(monitor)),
        mapping_(std::move(mapping)),
        core_(cfg, &mapping_, make_direction(&mapping_), monitor_.get()),
        name_(to_string(spec.model) + "/" + to_string(spec.direction)) {
    core_.set_name(name_);
  }

  bpu::AccessResult access(const bpu::BranchRecord& rec) override {
    return core_.access(rec);
  }

  // -------------------------------------------------------------------------
  // Batch-native prediction API. A front end that knows the next K branches
  // hands them over as a span; the engine starts their keyed mixes together
  // (one mix_batch kernel per compacted miss list) so the later per-branch
  // access() finds its R outputs already resident. Purely a cache-warming
  // contract: every filled value is bit-identical to what the demand path
  // computes, requests with stale speculative GHRs simply never match at
  // access time, and requests for entities whose token the demand path has
  // not yet established are dropped — so prediction statistics cannot be
  // affected by batching (the equivalence tests are the oracle).
  // -------------------------------------------------------------------------

  /// True when the mapping implements the batch probe/fill layer (STBPU's
  /// memo-cached mapping); baseline/conservative mappings compute indexes in
  /// a handful of cycles and precompute compiles away to nothing.
  static constexpr bool kBatchMapping = bpu::BatchPrecompute<Mapping>;
  /// True when the direction predictor keys its 2-level index on the GHR —
  /// lookahead requests must then carry a speculative GHR.
  static constexpr bool kGhrLookahead =
      std::is_same_v<Direction, bpu::SklCondPredictorT<Mapping>>;
  /// True when this engine's precompute actually does work — the gate
  /// front ends (the integer-tick sim::OooCoreT's lookahead window and its
  /// double-precision reference OooCoreRefT, sim::replay's chunked walk)
  /// use to skip buffering/request-building on the model×direction combos
  /// where precompute compiles to a no-op and the bookkeeping would be pure
  /// per-record overhead. TAGE engines are not among them: their Rt keys
  /// are batched per access at predict time (bpu::RtBatch).
  static constexpr bool kBatchPrecompute = kBatchMapping && kGhrLookahead;

  /// Largest span one precompute pass should cover. The staging caches are
  /// direct-mapped: precomputing far more keys than they hold makes fills
  /// evict each other before their demand access (wasting the batched mix
  /// AND paying the scalar recompute). SKLCond emits one R4 key per
  /// conditional into the 4096-entry fused cache, so 512 records fit with
  /// ~12% self-eviction. Callers with larger windows — sim::replay's
  /// 4096-record runs, access_batch — precompute in chunks of this size
  /// interleaved with the accesses.
  static constexpr std::size_t kPrecomputeWindow = 512;

  /// Warm the mapping caches for explicit requests (the raw API — callers
  /// that track their own speculative GHR, e.g. tests and attack studies).
  void precompute(std::span<const bpu::PredictRequest> reqs) {
    if constexpr (kBatchMapping) {
      mapping_.precompute(reqs, precompute_select());
    } else {
      (void)reqs;
    }
  }

  /// Warm the mapping caches for a run of upcoming trace records. The
  /// speculative per-hart GHR starts from the direction predictor's current
  /// value and advances by each record's trace outcome, mirroring the push
  /// the predictor itself will perform — exact in trace-driven simulation
  /// unless ψ re-keys mid-run, in which case the ψ-tagged entries are
  /// discarded by the demand path's tag check.
  void precompute_records(std::span<const bpu::BranchRecord> recs) {
    precompute_n(recs.size(), [&recs](std::size_t i) -> const bpu::BranchRecord& {
      return recs[i];
    });
  }

  /// SoA rendering of precompute_records for sim::replay's generator path:
  /// warms records [begin, end) of the batch.
  void precompute_batch(const trace::BranchBatch& batch, std::size_t begin,
                        std::size_t end) {
    end = std::min(end, batch.size());
    if (begin >= end) return;
    precompute_n(end - begin,
                 [&batch, begin](std::size_t i) { return batch.record(begin + i); });
  }

  /// Batched access: precompute window by window, then run the per-branch
  /// accesses. Statement sequence per branch is exactly access(), so the
  /// results are bit-identical to a scalar loop; context/mode switches
  /// within the span are not modelled (drive on_switch() yourself, as
  /// sim::replay does, if the span crosses entities).
  void access_batch(std::span<const bpu::BranchRecord> recs,
                    std::span<bpu::AccessResult> out) {
    const std::size_t n = std::min(recs.size(), out.size());
    for (std::size_t at = 0; at < n; at += kPrecomputeWindow) {
      const std::size_t c = std::min(kPrecomputeWindow, n - at);
      precompute_records(recs.subspan(at, c));
      for (std::size_t i = 0; i < c; ++i) out[at + i] = core_.access(recs[at + i]);
    }
  }

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
  /// Which R functions this engine's precompute warms, fixed by the
  /// direction-predictor type. Measured discipline, not completeness: only
  /// the history-keyed functions have compulsory demand-miss rates worth
  /// paying a per-record probe for — the fused R3+R4 probe for SKLCond
  /// (~0.75 misses/branch). The address-keyed functions already memoize at
  /// ≥99% demand hit rates (R1 ~99.4%, Rp ~99.7% on the fig4 workloads), so
  /// probing them per lookahead record costs more than the handful of
  /// misses it would batch. Recorded honestly in docs/API.md — the
  /// mapping-level API (PrecomputeSelect) still supports r1/rp warming for
  /// callers that want it.
  template <class M = Mapping>
  [[nodiscard]] typename M::PrecomputeSelect precompute_select() const {
    typename M::PrecomputeSelect sel;
    sel.r1 = false;
    sel.r34 = kGhrLookahead;
    return sel;
  }

  /// Shared request-building walk: `at(i)` yields record i of the window.
  /// The speculative GHR is seeded lazily per hart from the live predictor
  /// so a window that never touches a hart never reads it. Compiles to
  /// nothing unless this engine actually has functions worth warming (see
  /// precompute_select) — engines with no batchable compulsory misses must
  /// not pay request-building overhead per record.
  template <class RecAt>
  void precompute_n(std::size_t n, RecAt&& at) {
    if constexpr (kBatchPrecompute) {
      if (n == 0) return;
      reqs_.clear();
      reqs_.reserve(n);
      std::uint64_t g[2] = {0, 0};
      bool seeded[2] = {false, false};
      for (std::size_t i = 0; i < n; ++i) {
        const bpu::BranchRecord& rec = at(i);
        // Only conditionals consume the fused R3+R4 probe; other branch
        // types would only generate no-op requests.
        if (rec.type != bpu::BranchType::kConditional) continue;
        const unsigned h = rec.ctx.hart & 1;
        if (!seeded[h]) {
          g[h] = core_.direction().ghr_value(static_cast<std::uint8_t>(h));
          seeded[h] = true;
        }
        reqs_.push_back(bpu::PredictRequest{
            .ip = rec.ip, .ghr = g[h], .ctx = rec.ctx, .type = rec.type});
        g[h] = ((g[h] << 1) | static_cast<std::uint64_t>(rec.taken)) &
               util::mask(Direction::kGhrBits);
      }
      if (!reqs_.empty()) mapping_.precompute(reqs_, precompute_select());
    } else {
      (void)n;
    }
  }

  ModelSpec spec_;
  std::unique_ptr<core::STManager> stm_;
  std::unique_ptr<core::EventMonitor> monitor_;
  Mapping mapping_;
  bpu::CorePredictorT<Mapping, Direction> core_;
  std::string name_;
  std::uint64_t flushes_ = 0;
  std::vector<bpu::PredictRequest> reqs_;  ///< reused precompute scratch
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
