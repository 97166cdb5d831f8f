// Quickstart: build an STBPU-protected predictor, run a workload trace
// through it next to the unprotected baseline, and print accuracy plus the
// re-randomization activity of the secret-token monitors.
//
//   ./examples/quickstart [workload] [branches]
//
// Demonstrates the core public API:
//   * trace::SyntheticWorkloadGenerator — workload branch streams
//   * models::make_engine               — assembled BPU designs
//   * models::replay_engine             — trace-driven evaluation (OAE)
//   * models::engine_rerandomizations   — ψ re-keys the monitors fired
#include <cstdio>
#include <cstdlib>
#include <string>

#include "models/engine.h"
#include "models/models.h"
#include "trace/generator.h"
#include "trace/profile.h"

int main(int argc, char** argv) {
  using namespace stbpu;

  const std::string workload = argc > 1 ? argv[1] : "perlbench";
  const std::uint64_t branches = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                          : 1'000'000;

  trace::WorkloadProfile profile = trace::profile_by_name(workload);
  std::printf("workload: %s  (%u branch sites, %u processes)\n",
              profile.name.c_str(), profile.static_branches, profile.num_processes);
  std::printf("simulating %llu branches per model (100k warm-up)\n\n",
              static_cast<unsigned long long>(branches));

  const sim::BpuSimOptions opt{.max_branches = branches, .warmup_branches = 100'000};

  const models::ModelKind kinds[] = {
      models::ModelKind::kUnprotected,
      models::ModelKind::kUcode1,
      models::ModelKind::kUcode2,
      models::ModelKind::kConservative,
      models::ModelKind::kStbpu,
  };

  std::printf("%-28s %8s %8s %8s %10s %8s\n", "model", "OAE", "dir", "target",
              "evictions", "rerand");
  double baseline_oae = 0.0;
  for (const auto kind : kinds) {
    auto model = models::make_engine({.model = kind});
    trace::SyntheticWorkloadGenerator gen(profile);
    const sim::BranchStats s = models::replay_engine(*model, gen, opt);
    if (kind == models::ModelKind::kUnprotected) baseline_oae = s.oae();
    const std::uint64_t rerand = models::engine_rerandomizations(*model);
    std::printf("%-28s %8.4f %8.4f %8.4f %10llu %8llu", model->name().data(),
                s.oae(), s.direction_rate(), s.target_rate(),
                static_cast<unsigned long long>(s.btb_evictions),
                static_cast<unsigned long long>(rerand));
    if (baseline_oae > 0.0) std::printf("   (%.3fx baseline)", s.oae() / baseline_oae);
    std::printf("\n");
  }

  std::printf("\nSTBPU keeps accuracy at the unprotected level while the\n"
              "flush/partition designs pay for every context and mode switch.\n");
  return 0;
}
