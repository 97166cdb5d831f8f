#include "models/engine.h"

#include "bpu/direction.h"
#include "bpu/mapping.h"
#include "core/stbpu_mapping.h"
#include "perceptron/perceptron.h"
#include "tage/tage.h"

namespace stbpu::models {

namespace {

/// Instantiate the engine for one mapping type across the four direction
/// predictors of §VII-B2.
template <class Mapping>
std::unique_ptr<bpu::IPredictor> with_direction(
    const ModelSpec& spec, const bpu::CorePredictorConfig& cfg,
    std::unique_ptr<core::STManager> stm, std::unique_ptr<core::EventMonitor> monitor) {
  switch (spec.direction) {
    case DirectionKind::kSklCond: {
      using Dir = bpu::SklCondPredictorT<Mapping>;
      return std::make_unique<EngineT<Mapping, Dir>>(
          spec, cfg, std::move(stm), std::move(monitor),
          [](const Mapping* m) { return std::make_unique<Dir>(m); });
    }
    case DirectionKind::kTage8: {
      using Dir = tage::TagePredictorT<Mapping>;
      return std::make_unique<EngineT<Mapping, Dir>>(
          spec, cfg, std::move(stm), std::move(monitor),
          [&spec](const Mapping* m) {
            return std::make_unique<Dir>(tage::TageConfig::kb8(), m, spec.seed);
          });
    }
    case DirectionKind::kTage64: {
      using Dir = tage::TagePredictorT<Mapping>;
      return std::make_unique<EngineT<Mapping, Dir>>(
          spec, cfg, std::move(stm), std::move(monitor),
          [&spec](const Mapping* m) {
            return std::make_unique<Dir>(tage::TageConfig::kb64(), m, spec.seed);
          });
    }
    case DirectionKind::kPerceptron: {
      using Dir = perceptron::PerceptronPredictorT<Mapping>;
      return std::make_unique<EngineT<Mapping, Dir>>(
          spec, cfg, std::move(stm), std::move(monitor),
          [](const Mapping* m) { return std::make_unique<Dir>(m); });
    }
  }
  return nullptr;
}

/// Assemble one registered arm. Mirrors BpuModel::create — same configs,
/// same token/monitor seeding order — so the devirtualized and legacy
/// engines are statistically indistinguishable.
template <class Arm>
std::unique_ptr<bpu::IPredictor> build_arm(const ModelSpec& spec) {
  using Mapping = typename Arm::mapping_type;
  static_assert(std::is_constructible_v<Mapping, core::STManager*> == Arm::kTokenKeyed,
                "EngineT builds token-keyed mappings over the ST manager");
  bpu::CorePredictorConfig cfg;
  if constexpr (Arm::kBtbSets != 0) cfg.btb.sets = Arm::kBtbSets;
  cfg.btb.partition_by_hart = Arm::kPartitionByHart;
  if constexpr (Arm::kTokenKeyed) {
    auto stm = std::make_unique<core::STManager>(spec.seed);
    const bool separate_tagged = spec.direction == DirectionKind::kTage8 ||
                                 spec.direction == DirectionKind::kTage64;
    auto monitor = std::make_unique<core::EventMonitor>(
        stm.get(), monitor_config_for(spec, separate_tagged));
    return with_direction<Mapping>(spec, cfg, std::move(stm), std::move(monitor));
  } else {
    return with_direction<Mapping>(spec, cfg, nullptr, nullptr);
  }
}

}  // namespace

std::unique_ptr<bpu::IPredictor> make_engine(const ModelSpec& spec) {
  // Fold over the registry: the arm whose kKind matches builds the engine.
  // No per-arm switch to maintain — registering an arm IS the factory edit.
  std::unique_ptr<bpu::IPredictor> out;
  [&]<class... Arms>(std::type_identity<std::tuple<Arms...>>) {
    (void)((spec.model == Arms::kKind ? (out = build_arm<Arms>(spec), true)
                                      : false) ||
           ...);
  }(std::type_identity<RegisteredArms>{});
  return out;
}

core::RemapCacheStats engine_remap_cache_stats(const bpu::IPredictor& engine) {
  core::RemapCacheStats stats;
  visit_engine(const_cast<bpu::IPredictor&>(engine), [&](auto& e) {
    using Mapping = std::remove_reference_t<decltype(e.mapping())>;
    if constexpr (bpu::StatsReporting<Mapping>) stats = e.mapping().stats();
  });
  return stats;
}

core::EventMonitor* engine_monitor(bpu::IPredictor& engine) {
  core::EventMonitor* monitor = nullptr;
  visit_engine(engine, [&](auto& e) { monitor = e.monitor(); });
  return monitor;
}

sim::BranchStats replay_engine(bpu::IPredictor& engine, trace::BranchStream& stream,
                               const sim::BpuSimOptions& opt) {
  sim::BranchStats stats;
  if (visit_engine(engine, [&](auto& e) { stats = sim::replay(e, stream, opt); })) {
    return stats;
  }
  return sim::replay(engine, stream, opt);
}

}  // namespace stbpu::models
