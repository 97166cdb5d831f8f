// Common branch-prediction types: branch records as they appear in traces,
// the execution context that identifies a software entity (paper §IV), and
// the per-access result bookkeeping that drives both the OAE metric
// (paper §VII-B1) and the STBPU event monitors (paper §IV-B).
#pragma once

#include <cstdint>
#include <string_view>

namespace stbpu::bpu {

/// Virtual addresses are 48-bit in the paper's machine model.
inline constexpr unsigned kVirtualAddressBits = 48;
inline constexpr std::uint64_t kVirtualAddressMask =
    (std::uint64_t{1} << kVirtualAddressBits) - 1;

/// ISA branch classes per paper §II-A.
enum class BranchType : std::uint8_t {
  kConditional,   // jcc — direction predicted by PHT/TAGE/Perceptron
  kDirectJump,    // jmp imm
  kDirectCall,    // call imm — pushes RSB
  kIndirectJump,  // jmp reg/mem — BTB mode 2 (BHB-assisted)
  kIndirectCall,  // call reg/mem — pushes RSB, BTB mode 2
  kReturn,        // ret — RSB, falls back to indirect predictor on underflow
};

[[nodiscard]] constexpr std::string_view to_string(BranchType t) noexcept {
  switch (t) {
    case BranchType::kConditional: return "cond";
    case BranchType::kDirectJump: return "jmp";
    case BranchType::kDirectCall: return "call";
    case BranchType::kIndirectJump: return "ijmp";
    case BranchType::kIndirectCall: return "icall";
    case BranchType::kReturn: return "ret";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_call(BranchType t) noexcept {
  return t == BranchType::kDirectCall || t == BranchType::kIndirectCall;
}
[[nodiscard]] constexpr bool is_indirect(BranchType t) noexcept {
  return t == BranchType::kIndirectJump || t == BranchType::kIndirectCall ||
         t == BranchType::kReturn;
}

/// The model supports at most 2-way SMT (Table IV): per-hart BPU state is
/// sized for it, so ExecContext::hart must stay below it.
inline constexpr unsigned kMaxSmtThreads = 2;

/// Identifies the software entity executing a branch. STBPU assigns one
/// secret token per entity requiring isolation (paper §IV): user processes
/// are keyed by pid; the kernel is its own entity even though it shares the
/// user's virtual address space (threat model "Kernel/VMM as victim").
struct ExecContext {
  std::uint16_t pid = 0;  ///< software entity (process) id
  std::uint8_t hart = 0;  ///< hardware thread within the physical core (SMT)
  bool kernel = false;    ///< privileged mode

  friend constexpr bool operator==(const ExecContext&, const ExecContext&) = default;
};

/// One dynamic branch execution as recorded in a trace.
struct BranchRecord {
  std::uint64_t ip = 0;      ///< branch instruction virtual address (48-bit)
  std::uint64_t target = 0;  ///< resolved target (48-bit); fall-through if not taken
  BranchType type = BranchType::kConditional;
  bool taken = true;  ///< always true for unconditional branches
  ExecContext ctx;
};

/// What the front end would do with this branch before resolution.
struct Prediction {
  bool taken = false;           ///< predicted direction (conditionals)
  bool target_valid = false;    ///< BTB/RSB produced a target
  std::uint64_t target = 0;     ///< predicted target if target_valid
  bool from_tagged = false;     ///< direction came from a tagged TAGE table
                                ///< (drives the separate ST_TAGE threshold MSR)
};

/// Per-access outcome; the trace simulator aggregates these into the OAE
/// metric and the event monitors consume the misprediction/eviction bits.
struct AccessResult {
  bool direction_correct = true;  ///< conditionals only; true otherwise
  bool target_correct = true;     ///< taken branches needing a target
  bool overall_correct = true;    ///< OAE: all necessary predictions correct
  bool direction_mispredicted = false;
  bool target_mispredicted = false;
  bool btb_eviction = false;  ///< this update evicted a BTB entry
  bool rsb_underflow = false;
  bool from_tagged = false;  ///< direction provider class (TAGE bookkeeping)
  /// What the front end predicted before resolution — the speculative
  /// control flow an attacker manipulates (and observes through timing).
  Prediction pred;
};

/// Sink for the hardware events STBPU's MSRs monitor (paper §IV-B): branch
/// mispredictions (direction or target) and BTB evictions. The core STBPU
/// module implements this to drive ST re-randomization; the default sink
/// ignores everything (unprotected designs).
class IEventSink {
 public:
  virtual ~IEventSink() = default;
  /// `tagged_component` distinguishes mispredictions whose direction was
  /// provided by a tagged TAGE table; ST_TAGE designs give those a separate
  /// threshold register (paper §VII-B2).
  virtual void on_misprediction(const ExecContext& ctx, bool tagged_component) = 0;
  virtual void on_btb_eviction(const ExecContext& ctx) = 0;
};

/// No-op sink used by unprotected/microcode models.
class NullEventSink final : public IEventSink {
 public:
  void on_misprediction(const ExecContext&, bool) override {}
  void on_btb_eviction(const ExecContext&) override {}
};

}  // namespace stbpu::bpu
