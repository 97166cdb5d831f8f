// BranchScope walkthrough: a PHT side channel recovering a victim's
// secret-dependent branch directions bit by bit — then the same attack
// against STBPU, where the keyed R3 mapping reduces the attacker to coin
// flipping, and a sustained attempt trips the re-randomization monitor.
#include <cstdio>
#include <string>

#include "attacks/harness.h"
#include "models/engine.h"
#include "models/models.h"
#include "util/rng.h"

int main() {
  using namespace stbpu;
  constexpr std::uint64_t kVictimBranch = 0x0000'2345'6780ULL;
  const std::string secret = "1011001110001011";  // victim's secret bits

  std::printf("BranchScope demo: recovering a %zu-bit secret through the PHT\n\n",
              secret.size());

  for (const auto kind : {models::ModelKind::kUnprotected, models::ModelKind::kStbpu}) {
    auto model = models::make_engine({.model = kind});
    attacks::Harness h(model.get());
    const std::uint64_t primer = kVictimBranch ^ (1ULL << 12);

    std::string recovered;
    for (const char bit : secret) {
      // Keep the hybrid predictor in its base (1-level) mode.
      for (int i = 0; i < 6; ++i) {
        h.jcc(attacks::Harness::kAttacker, primer, true, 0x0000'6666'0000ULL);
      }
      // Victim: one secret-dependent branch, executed three times.
      const bool taken = bit == '1';
      for (int i = 0; i < 3; ++i) {
        h.jcc(attacks::Harness::kVictim, kVictimBranch, taken, 0x0000'2345'9000ULL);
      }
      // Attacker: probe the shared counter and read the prediction.
      const auto res =
          h.jcc(attacks::Harness::kAttacker, kVictimBranch, true, 0x0000'6666'0000ULL);
      recovered.push_back(res.pred.taken ? '1' : '0');
      h.jcc(attacks::Harness::kAttacker, kVictimBranch, false, 0x0000'6666'0000ULL);
    }

    unsigned correct = 0;
    for (std::size_t i = 0; i < secret.size(); ++i) {
      correct += secret[i] == recovered[i];
    }
    std::printf("--- %s ---\n", model->name().data());
    std::printf("  secret:    %s\n", secret.c_str());
    std::printf("  recovered: %s   (%u/%zu bits)\n\n", recovered.c_str(), correct,
                secret.size());
  }

  std::printf("On the baseline the attacker reads the victim's counter exactly;\n"
              "under STBPU attacker and victim touch unrelated PHT entries, and a\n"
              "longer campaign only drains the misprediction MSR until the secret\n"
              "token rotates (thresholds: paper §VII-A, r=0.05 -> ~41.9k events).\n");
  return 0;
}
