// OS operator's view: tuning the re-randomization thresholds (Γ = r·C).
// Sweeps the attack-difficulty factor r and reports, for one workload, the
// accuracy cost and re-randomization frequency — the security/performance
// dial the paper gives the OS (§IV-A, §VII-A, Figure 6's trace-level twin).
#include <cstdio>

#include "analysis/equations.h"
#include "models/engine.h"
#include "models/models.h"
#include "trace/generator.h"
#include "trace/profile.h"

int main(int argc, char** argv) {
  using namespace stbpu;
  const std::string workload = argc > 1 ? argv[1] : "deepsjeng";
  const auto profile = trace::profile_by_name(workload);
  const sim::BpuSimOptions opt{.max_branches = 600'000, .warmup_branches = 60'000};

  std::printf("threshold tuning on '%s' (600k branches)\n\n", profile.name.c_str());
  std::printf("binding attack complexities C (paper §VI-A5): M=%.3g, E=%.3g\n\n",
              analysis::binding_complexity().mispredictions_c,
              analysis::binding_complexity().evictions_c);

  // Unprotected reference.
  double base_oae;
  {
    auto model = models::make_engine({});
    trace::SyntheticWorkloadGenerator gen(profile);
    base_oae = models::replay_engine(*model, gen, opt).oae();
  }
  std::printf("unprotected baseline OAE: %.4f\n\n", base_oae);
  std::printf("%-10s %14s %14s %10s %10s %10s\n", "r", "misp thresh", "evict thresh",
              "OAE", "norm.", "rerands");

  for (const double r : {1.0, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5}) {
    models::ModelSpec spec{.model = models::ModelKind::kStbpu};
    spec.rerand_difficulty_r = r;
    auto model = models::make_engine(spec);
    trace::SyntheticWorkloadGenerator gen(profile);
    const auto stats = models::replay_engine(*model, gen, opt);
    const std::uint64_t rerands = models::engine_rerandomizations(*model);
    const auto thresholds = analysis::derive_thresholds(r);
    std::printf("%-10g %14llu %14llu %10.4f %10.4f %10llu%s\n", r,
                static_cast<unsigned long long>(thresholds.mispredictions),
                static_cast<unsigned long long>(thresholds.evictions), stats.oae(),
                stats.oae() / base_oae,
                static_cast<unsigned long long>(rerands),
                r == 0.05 ? "   <- paper default" : "");
  }

  std::printf("\nreading the dial: r=1 means an attacker reaches 50%% success\n"
              "probability exactly when the ST rotates; smaller r rotates earlier.\n"
              "The OS can even set per-process thresholds of 1, disabling the BPU\n"
              "for ultra-sensitive code (paper §IV-A).\n");
  return 0;
}
