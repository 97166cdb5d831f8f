// Workload inputs, arms and slice runners, shared by the untraced loop
// (workloads.cc) and the traced per-layer run (layers.cc).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "bpu/types.h"
#include "models/models.h"
#include "perfbench.h"
#include "tenant/churn.h"
#include "trace/pregen.h"
#include "trace/stream.h"

namespace perfbench {

struct Arm {
  stbpu::models::ModelKind model;
  stbpu::models::DirectionKind direction;
  const char* name;  ///< cell suffix, `<model>-<direction>`
};

using stbpu::models::DirectionKind;
using stbpu::models::ModelKind;

// replay_steady: the fig4 throughput arms on a single-process profile with
// hot loops (mcf) and a 10-process server profile with shared code and
// frequent context switches (apache2_prefork_c512).
inline constexpr std::array<const char*, 2> kReplayProfiles = {"mcf",
                                                               "apache2_prefork_c512"};
inline constexpr Arm kReplayArms[] = {
    {ModelKind::kUnprotected, DirectionKind::kSklCond, "unprotected-SKLCond"},
    {ModelKind::kStbpu, DirectionKind::kSklCond, "STBPU-SKLCond"},
    {ModelKind::kStbpu, DirectionKind::kPerceptron, "STBPU-Perceptron"},
    {ModelKind::kStbpu, DirectionKind::kTage8, "STBPU-TAGE8"},
    {ModelKind::kCibpu, DirectionKind::kSklCond, "CIBPU-SKLCond"},
    {ModelKind::kXorIsolation, DirectionKind::kSklCond, "XOR_isolation-SKLCond"},
};
inline constexpr std::uint64_t kReplayWarmup = 50'000;
inline constexpr std::uint64_t kReplayBranches = 200'000;

// replay_churn: far more tenants than the 256 pid slots, shards small
// enough that the clock hand evicts, periodic shard invalidations, and
// monitor thresholds from fig6's aggressive low-r end.
inline constexpr std::pair<ModelKind, const char*> kChurnArms[] = {
    {ModelKind::kStbpu, "STBPU-SKLCond"},
    {ModelKind::kCibpu, "CIBPU-SKLCond"},
};
inline constexpr std::uint64_t kChurnTenants = 32768;
inline constexpr std::uint32_t kChurnShardCapacity = 1u << 9;
inline constexpr std::uint64_t kChurnStormPasses = 4;
inline constexpr std::uint32_t kChurnBurst = 64;
inline constexpr std::uint64_t kChurnInvalidateEvery = 256;
inline constexpr double kChurnDifficulty = 1e-4;

// ooo_core: cycle-level runs on an 8 MB working set (mcf, cache-heavy) and
// a 64 KB one (exchange2, scheduling- and BPU-heavy).
inline constexpr Arm kOooArms[] = {
    {ModelKind::kUnprotected, DirectionKind::kSklCond, "unprotected-SKLCond"},
    {ModelKind::kStbpu, DirectionKind::kSklCond, "STBPU-SKLCond"},
    {ModelKind::kStbpu, DirectionKind::kTage64, "STBPU-TAGE64"},
};
inline constexpr std::uint64_t kOooWarmup = 20'000;
inline constexpr std::uint64_t kOooBudget = 150'000;
/// Lookahead slack past warm-up + budget (the core's fetch window).
inline constexpr std::uint64_t kOooSlack = 4096;

// Companion cells.
inline constexpr std::uint64_t kProbeChurnBranches = 16'384;
inline constexpr std::uint64_t kProbeOooWarmup = 10'000;
inline constexpr std::uint64_t kProbeOooBudget = 50'000;

[[nodiscard]] std::uint64_t profile_salt(std::string_view profile);
[[nodiscard]] std::vector<stbpu::bpu::BranchRecord> branch_trace(std::string_view profile,
                                                                 std::uint64_t seed,
                                                                 std::uint64_t n);
using InstrTracePtr = std::shared_ptr<const stbpu::trace::InstrTrace>;
[[nodiscard]] InstrTracePtr ooo_trace(std::string_view profile, std::uint64_t seed,
                                      std::uint64_t n);
[[nodiscard]] stbpu::models::ModelSpec churn_arm(ModelKind kind);
[[nodiscard]] stbpu::tenant::ChurnConfig churn_config(std::uint64_t seed);

[[nodiscard]] Slice replay_slice(const Arm& arm, stbpu::trace::VectorStream& stream);
[[nodiscard]] Slice churn_slice(const stbpu::models::ModelSpec& spec,
                                const std::vector<stbpu::bpu::BranchRecord>& base,
                                const stbpu::tenant::ChurnConfig& cfg);
[[nodiscard]] Slice ooo_slice(const stbpu::models::ModelSpec& spec,
                              const std::vector<InstrTracePtr>& traces, std::uint64_t warmup,
                              std::uint64_t budget);

}  // namespace perfbench
