// Spectre v2 walkthrough: a cross-process branch-target-injection attack,
// step by step, against the unprotected baseline and against STBPU.
//
// The attacker trains the shared BTB so the victim's indirect branch
// speculates into a chosen "gadget". On STBPU the attacker's entry lives
// under a different ψ mapping and its payload is φ-encrypted — the victim
// either misses or decodes garbage, never the gadget.
#include <cstdio>

#include "attacks/harness.h"
#include "attacks/table1.h"
#include "models/engine.h"
#include "models/models.h"

int main() {
  using namespace stbpu;
  constexpr std::uint64_t kVictimBranch = 0x0000'2345'6780ULL;
  constexpr std::uint64_t kLegitTarget = 0x0000'2345'9000ULL;
  constexpr std::uint64_t kGadget = 0x0000'1122'3344ULL;

  std::printf("Spectre v2 (branch target injection) demo\n");
  std::printf("victim indirect branch @ %#llx, legitimate target %#llx\n",
              (unsigned long long)kVictimBranch, (unsigned long long)kLegitTarget);
  std::printf("attacker's gadget address %#llx\n\n", (unsigned long long)kGadget);

  for (const auto kind : {models::ModelKind::kUnprotected, models::ModelKind::kStbpu}) {
    auto model = models::make_engine({.model = kind});
    attacks::Harness h(model.get());
    std::printf("--- %s ---\n", model->name().data());

    // Step 1: the attacker reaches the branch with the victim's history
    // (controlled via the victim's inputs in a real exploit) and trains the
    // gadget target.
    h.align_history(attacks::Harness::kAttacker);
    h.ijmp(attacks::Harness::kAttacker, kVictimBranch, kGadget);
    std::printf("  [A] trained BTB entry for %#llx -> gadget\n",
                (unsigned long long)kVictimBranch);

    // Step 2: the victim executes its indirect branch with the same history.
    h.align_history(attacks::Harness::kVictim);
    const auto res =
        h.ijmp(attacks::Harness::kVictim, kVictimBranch, kLegitTarget);

    if (res.pred.target_valid) {
      std::printf("  [V] front end predicted target %#llx\n",
                  (unsigned long long)res.pred.target);
    } else {
      std::printf("  [V] no BTB prediction (static fall-through)\n");
    }
    if (res.pred.target_valid && res.pred.target == kGadget) {
      std::printf("  => INJECTION SUCCEEDED: victim speculatively executes the "
                  "attacker's gadget!\n\n");
    } else {
      std::printf("  => injection failed: speculation never reaches the gadget\n\n");
    }
  }

  // Statistics over many trials.
  std::printf("success rate over 256 trials:\n");
  for (const auto kind : {models::ModelKind::kUnprotected, models::ModelKind::kUcode1,
                          models::ModelKind::kConservative, models::ModelKind::kStbpu}) {
    auto model = models::make_engine({.model = kind});
    const auto r = attacks::btb_injection_away(*model, 256, 99, kGadget);
    std::printf("  %-28s %.3f\n", model->name().data(), r.success_rate);
  }
  std::printf("\nSTBPU stops the attack without flushing: the entry is simply\n"
              "unreachable under the victim's secret token (paper §VI-A1).\n");
  return 0;
}
