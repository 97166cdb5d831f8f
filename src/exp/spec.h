// Declarative experiment specifications (the paper's §VII evaluation grid
// as data): which scenario to run, at which scale, over which subset of the
// scenario's point grid, and how the grid is sharded across processes.
// Specs serialize to/from JSON so a sweep can be described once and
// executed anywhere (`stbpu_bench run --spec=...`), and so shard files
// carry enough context for `stbpu_bench merge` to verify completeness and
// rebuild the exact unsharded trajectory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/json.h"

namespace stbpu::exp {

/// Simulation budgets (quick CI scale vs the paper's full scale). Every
/// field can be overridden individually — tests and CI shards use tiny
/// budgets through the same code path as the paper runs.
struct Scale {
  bool paper = false;
  std::uint64_t trace_branches = 400'000;
  std::uint64_t trace_warmup = 50'000;
  std::uint64_t ooo_instructions = 300'000;
  std::uint64_t ooo_warmup = 30'000;

  /// Named preset: "quick" or "paper". nullopt for anything else.
  static std::optional<Scale> named(const std::string& name);
  [[nodiscard]] const char* name() const { return paper ? "paper" : "quick"; }

  friend bool operator==(const Scale&, const Scale&) = default;
};

/// Optional event-monitor overrides (paper §IV-B / §VII-A): the difficulty
/// factor r of MonitorConfig::from_difficulty plus explicit Γ_M / Γ_E /
/// tagged-Γ thresholds. 0 means "unset" everywhere — the scenario's model
/// defaults apply — so re-randomization rates can be swept from a spec
/// without recompiling. Serialized as a nested "monitor" object, emitted
/// only when at least one field is set.
struct MonitorOverride {
  double difficulty_r = 0.0;
  std::uint64_t misprediction_threshold = 0;
  std::uint64_t eviction_threshold = 0;
  std::uint64_t tagged_misprediction_threshold = 0;

  [[nodiscard]] bool any() const noexcept {
    return difficulty_r != 0.0 || misprediction_threshold != 0 ||
           eviction_threshold != 0 || tagged_misprediction_threshold != 0;
  }
  friend bool operator==(const MonitorOverride&, const MonitorOverride&) = default;
};

struct ExperimentSpec {
  std::string scenario;
  Scale scale;
  unsigned jobs = 0;              ///< worker threads (0 = hardware concurrency)
  std::uint32_t shard_index = 0;  ///< this process's shard of the point grid
  std::uint32_t shard_count = 1;
  /// Explicit point selection (grid indices); empty = the whole grid.
  /// Sharding applies on top of the selection.
  std::vector<std::size_t> points;
  /// Optional on-disk branch trace replayed by trace-replay scenarios
  /// instead of their synthetic workloads (trace::FileStream).
  std::string trace_file;
  std::uint64_t seed = 0;  ///< 0 = scenario defaults
  /// Defense-arm filter for multi-arm scenarios (attack_matrix): model-kind
  /// names per models::to_string(ModelKind), e.g. ["STBPU", "CIBPU"].
  /// Empty = every arm the scenario defines. Names are validated at parse
  /// time against the registered kinds (models::parse_model_kind), so a
  /// typo'd arm is a spec error naming the offender, not a silent no-op.
  std::vector<std::string> arms;
  /// Monitor threshold overrides (0 = scenario defaults; see MonitorOverride).
  MonitorOverride monitor;

  [[nodiscard]] bool sharded() const noexcept { return shard_count > 1; }
  /// True when grid point `index` is selected (before sharding).
  [[nodiscard]] bool selected(std::size_t index) const noexcept;
  /// Grid indices this spec executes: the explicit selection (or the whole
  /// grid), striped across shards by ordinal position within the selection
  /// — every shard gets an even share of the *selected* points regardless
  /// of the selection's index parity.
  [[nodiscard]] std::vector<std::size_t> owned_points(std::size_t grid_size) const;

  /// Serialize (without shard fields when `with_shard` is false, so the
  /// merged output of a sharded sweep matches an unsharded run exactly).
  [[nodiscard]] std::string to_json(bool with_shard = true) const;
  /// Parse from a JSON object. Unknown keys and integers outside their
  /// field's range are errors naming the field (declarative specs should
  /// never silently drop or reinterpret a directive); json_parse has
  /// already rejected repeated keys.
  static bool from_json(const JsonValue& v, ExperimentSpec& out, std::string& err);

  friend bool operator==(const ExperimentSpec&, const ExperimentSpec&) = default;
};

/// Parse "i/N" (e.g. --shard=0/2). Requires N >= 1, i < N and N to fit
/// 32 bits.
bool parse_shard(const std::string& text, std::uint32_t& index, std::uint32_t& count,
                 std::string& err);

/// Parse a point-selection list: comma-separated indices and inclusive
/// ranges, e.g. "0,3,7-9". Result is sorted and deduplicated.
bool parse_points(const std::string& text, std::vector<std::size_t>& out,
                  std::string& err);

}  // namespace stbpu::exp
