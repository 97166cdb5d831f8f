// Mapping-registry contract: the compile-time typelist (RegisteredArms) is
// the single registration point, the mapping concepts gate what goes in it,
// parse errors self-diagnose against the registered kinds, and
// visit_engine recovers the concrete engine type for every kind×direction.
#include <gtest/gtest.h>

#include <string>

#include "core/cibpu_mapping.h"
#include "core/stbpu_mapping.h"
#include "core/xor_isolation_mapping.h"
#include "models/engine.h"
#include "models/models.h"

namespace stbpu::models {
namespace {

// --- Concept contract (compile-time; a failure here is a build break). ---
static_assert(bpu::MappingCore<bpu::BaselineMappingLogic>);
static_assert(bpu::MappingCore<core::StbpuMapping>);
static_assert(bpu::MappingCore<core::CachedStbpuMapping>);
static_assert(bpu::MappingCore<core::CibpuMappingLogic>);
static_assert(bpu::MappingCore<core::XorIsolationMappingLogic>);
// Optional capabilities: only the cached STBPU mapping invalidates, batches
// Rt and reports stats; the baseline and the rivals must NOT accidentally
// grow those hooks without the engine noticing.
static_assert(bpu::Invalidatable<core::CachedStbpuMapping>);
static_assert(!bpu::Invalidatable<bpu::BaselineMappingLogic>);
static_assert(!bpu::Invalidatable<core::CibpuMappingLogic>);
static_assert(!bpu::Invalidatable<core::XorIsolationMappingLogic>);
static_assert(bpu::RtBatch<core::CachedStbpuMapping>);
static_assert(!bpu::RtBatch<bpu::BaselineMappingLogic>);
static_assert(!bpu::RtBatch<core::StbpuMapping>);  // legacy per-table oracle
static_assert(!bpu::RtBatch<core::CibpuMappingLogic>);
static_assert(!bpu::RtBatch<core::XorIsolationMappingLogic>);
static_assert(bpu::StatsReporting<core::CachedStbpuMapping>);
static_assert(!bpu::StatsReporting<bpu::BaselineMappingLogic>);

TEST(MappingRegistry, ToStringParseRoundTripsEveryRegisteredKind) {
  for (const ModelKind kind : all_model_kinds()) {
    ModelKind parsed{};
    std::string err;
    ASSERT_TRUE(parse_model_kind(to_string(kind), parsed, err)) << err;
    EXPECT_EQ(parsed, kind);
  }
  for (const DirectionKind dir : all_direction_kinds()) {
    DirectionKind parsed{};
    std::string err;
    ASSERT_TRUE(parse_direction_kind(to_string(dir), parsed, err)) << err;
    EXPECT_EQ(parsed, dir);
  }
}

TEST(MappingRegistry, ParseErrorNamesOffenderAndListsRegisteredKinds) {
  ModelKind kind{};
  std::string err;
  EXPECT_FALSE(parse_model_kind("sbpu", kind, err));
  EXPECT_NE(err.find("'sbpu'"), std::string::npos) << err;
  // Every registered kind appears in the diagnostic.
  for (const ModelKind k : all_model_kinds()) {
    EXPECT_NE(err.find(to_string(k)), std::string::npos) << err;
  }

  DirectionKind dir{};
  err.clear();
  EXPECT_FALSE(parse_direction_kind("tage", dir, err));
  EXPECT_NE(err.find("'tage'"), std::string::npos) << err;
  EXPECT_NE(err.find(to_string(DirectionKind::kTage64)), std::string::npos) << err;
}

TEST(MappingRegistry, VisitEngineRecoversEveryKindTimesDirection) {
  for (const ModelKind kind : all_model_kinds()) {
    for (const DirectionKind dir : all_direction_kinds()) {
      auto engine = make_engine({.model = kind, .direction = dir});
      ASSERT_NE(engine, nullptr)
          << to_string(kind) << "/" << to_string(dir) << " missing from registry";
      bool visited = false;
      EXPECT_TRUE(visit_engine(*engine, [&](auto&) { visited = true; }))
          << "visit_engine failed for " << to_string(kind) << "/" << to_string(dir);
      EXPECT_TRUE(visited);
    }
  }
}

TEST(MappingRegistry, TokenKeyedArmsCarryAMonitor) {
  for (const ModelKind kind :
       {ModelKind::kStbpu, ModelKind::kCibpu, ModelKind::kXorIsolation}) {
    auto engine = make_engine({.model = kind});
    ASSERT_NE(engine, nullptr);
    EXPECT_NE(engine_monitor(*engine), nullptr) << to_string(kind);
  }
  auto unprotected = make_engine({.model = ModelKind::kUnprotected});
  ASSERT_NE(unprotected, nullptr);
  EXPECT_EQ(engine_monitor(*unprotected), nullptr);
}

}  // namespace
}  // namespace stbpu::models
