// Scenario registry — the experiment API's unit of registration. Each of
// the paper's figures/tables is a named Scenario exposing
//   * a deterministic point grid (the sweep's configuration points, in
//     sweep order — the unit of thread-pool scheduling and of cross-process
//     sharding), and
//   * a point-runner producing typed fields, plus an aggregate step that
//     turns the full point set into the scenario's BENCH_*.json rows
//     (averages, normalizations, medians — anything needing every point).
// The split is what makes sharding exact: shards persist raw point fields
// (doubles at full precision), and `merge` re-runs only the aggregate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/spec.h"

namespace stbpu::exp {

/// Typed scalar field. The type tag travels through shard files so the
/// final JSON rendering (legacy BenchJson formats: %.10g doubles, decimal
/// integers, quoted strings) is reproduced exactly on merge.
class Value {
 public:
  enum class Type : std::uint8_t { kString, kDouble, kU64, kInt };

  Value() : type_(Type::kString) {}
  /* implicit */ Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  /* implicit */ Value(const char* s) : type_(Type::kString), str_(s) {}
  /* implicit */ Value(double d) : type_(Type::kDouble), num_(d) {}
  /* implicit */ Value(std::uint64_t u) : type_(Type::kU64), u64_(u) {}
  /* implicit */ Value(int i) : type_(Type::kInt), int_(i) {}
  /* implicit */ Value(bool) = delete;  // use "true"/"false" strings (legacy schema)

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] const std::string& str() const noexcept { return str_; }
  [[nodiscard]] double num() const noexcept { return num_; }
  [[nodiscard]] std::uint64_t u64() const noexcept { return u64_; }
  [[nodiscard]] int int_value() const noexcept { return int_; }

  /// Render as a JSON literal in the legacy BENCH_*.json format.
  [[nodiscard]] std::string render() const;
  /// Render for shard files: doubles at %.17g so strtod round-trips to the
  /// identical bit pattern on merge.
  [[nodiscard]] std::string render_exact() const;

 private:
  Type type_;
  std::string str_;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  int int_ = 0;
};

struct Field {
  std::string key;
  Value value;
};

/// Raw result of one grid point: ordered named fields.
struct PointResult {
  std::vector<Field> fields;

  PointResult& set(std::string key, Value v) {
    fields.push_back({std::move(key), std::move(v)});
    return *this;
  }
  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& f : fields) {
      if (f.key == key) return &f.value;
    }
    return nullptr;
  }
  [[nodiscard]] double num(std::string_view key) const {
    const Value* v = find(key);
    return v == nullptr ? 0.0 : v->num();
  }
  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    const Value* v = find(key);
    return v == nullptr ? 0 : v->u64();
  }
  [[nodiscard]] std::string str(std::string_view key) const {
    const Value* v = find(key);
    return v == nullptr ? std::string{} : v->str();
  }
};

/// One output row of the final BENCH_*.json ("label" plus fields).
struct Row {
  std::string label;
  std::vector<Field> fields;

  explicit Row(std::string l) : label(std::move(l)) {}
  Row& set(std::string key, Value v) {
    fields.push_back({std::move(key), std::move(v)});
    return *this;
  }
};

/// The aggregated scenario result: deterministic meta fields (after the
/// "scale" entry) and the rows, in the legacy bench's order and schema.
struct ScenarioOutput {
  std::vector<Field> meta;
  std::vector<Row> rows;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// One-line banner/description shown by `list` and `run`.
  [[nodiscard]] virtual std::string_view title() const = 0;

  /// The point grid for `spec`, in sweep order. Labels are stable
  /// identifiers (shown by `describe`, used for shard bookkeeping).
  [[nodiscard]] virtual std::vector<std::string> point_labels(
      const ExperimentSpec& spec) const = 0;

  /// Run grid point `index`. Called concurrently from the pool — must not
  /// touch shared mutable state. Exceptions are caught by the runner and
  /// fail the whole run with the point's label attached.
  [[nodiscard]] virtual PointResult run_point(const ExperimentSpec& spec,
                                              std::size_t index) const = 0;

  /// Build the final rows from the complete point set (indexed by grid
  /// position). Only called with every point present.
  [[nodiscard]] virtual ScenarioOutput aggregate(
      const ExperimentSpec& spec, const std::vector<PointResult>& points) const = 0;
};

/// Register a scenario (takes ownership). Names must be unique.
void register_scenario(const Scenario* scenario);
/// nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);
/// All scenarios in registration order (the `list` order).
[[nodiscard]] const std::vector<const Scenario*>& all_scenarios();

/// Register the built-in scenario set (the paper's figures/tables plus the
/// extension studies). Idempotent.
void register_builtin_scenarios();

}  // namespace stbpu::exp
