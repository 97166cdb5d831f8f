// Cycle-level stall attribution: run a workload through the integer-tick
// OoO core (Table IV machine) on an STBPU-protected vs unprotected BPU and
// show where the simulated machine's cycles went — the per-thread stall
// breakdown OooResult carries (fetch bandwidth, branch redirects,
// ROB/IQ/LQ/SQ occupancy).
//
//   ./examples/ooo_stall_demo [workload] [instructions]
//
// Demonstrates:
//   * trace::SyntheticInstrGenerator — instruction-level workload streams
//   * exp::for_each_engine + sim::run_ooo — the devirtualized tick core
//   * OooResult::stalls — exact stall attribution (integer ticks, reported
//     as cycles), the counters behind perfbench's `sim.stall_cpi.*`
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/engine_visit.h"
#include "models/models.h"
#include "sim/ooo.h"
#include "trace/instr.h"
#include "trace/profile.h"

int main(int argc, char** argv) {
  using namespace stbpu;

  const std::string workload = argc > 1 ? argv[1] : "mcf";
  const std::uint64_t instructions =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 300'000;
  const std::uint64_t warmup = instructions / 10;

  const trace::WorkloadProfile profile = trace::profile_by_name(workload);
  std::printf("workload: %s — %llu instructions (+%llu warm-up), Table IV core\n\n",
              profile.name.c_str(),
              static_cast<unsigned long long>(instructions),
              static_cast<unsigned long long>(warmup));

  for (const auto model :
       {models::ModelKind::kUnprotected, models::ModelKind::kStbpu}) {
    const models::ModelSpec spec{.model = model,
                                 .direction = models::DirectionKind::kSklCond};
    exp::for_each_engine(spec, [&](auto& engine) {
      trace::SyntheticInstrGenerator gen(profile);
      const sim::OooResult r =
          sim::run_ooo({}, engine, {&gen}, instructions, warmup);
      const sim::OooThreadStalls& s = r.stalls[0];
      std::printf("%s/SKLCond\n", models::to_string(model).c_str());
      std::printf("  IPC %.4f over %.0f cycles (%llu instructions, OAE %.4f)\n",
                  r.ipc[0], r.cycles[0],
                  static_cast<unsigned long long>(r.instructions[0]),
                  r.branch_stats[0].oae());
      std::printf("  stall cycles: redirect %.0f | fetch-bw %.0f | "
                  "ROB %.0f | IQ %.0f | LQ %.0f | SQ %.0f\n\n",
                  s.redirect, s.fetch_bandwidth, s.rob, s.iq, s.lq, s.sq);
    });
  }
  std::printf("(per-instruction averages over the benchmark's OoO cells: "
              "perfbench's sim.stall_cpi.*)\n");
  return 0;
}
