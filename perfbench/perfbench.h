// Shared pieces of the STBPU performance benchmark: options, the golden
// digest table, slice accounting, the in-memory span tracer and the
// workload interface. See README.md in this directory for the method.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_path;  ///< checked-in digest table
  std::string out_dir;      ///< where the traced run writes its spans
  bool emit_digests = false;  ///< print one golden line per cell, no timing
};

/// Salted, never-zero seed for one input generator (0 means "profile
/// default" to the library's generators).
[[nodiscard]] std::uint64_t input_seed(std::uint64_t workload_seed, std::uint64_t salt);

/// Order-sensitive FNV-1a digest over 64-bit words (doubles by bit pattern).
class Digest {
 public:
  void add(std::uint64_t v) { words_.push_back(v); }
  void add(double v);
  [[nodiscard]] std::uint64_t value() const;

 private:
  std::vector<std::uint64_t> words_;
};

/// Checked-in digests, one line per cell: `<workload> <seed> <cell> <hex>`.
class GoldenTable {
 public:
  /// Missing file = empty table; a malformed line is a named error.
  [[nodiscard]] bool load(const std::string& path, std::string& err);
  [[nodiscard]] const std::uint64_t* find(std::string_view workload, std::uint64_t seed,
                                          std::string_view cell) const;

 private:
  std::map<std::string, std::uint64_t> digests_;
};

/// One timed slice of a cell: the simulated result's digest, the work it
/// did and the host time it took.
struct Slice {
  std::uint64_t digest = 0;
  double work = 0;      ///< branches simulated in the timed region
  double seconds = 0;   ///< host time of the timed region
  bool ok = true;       ///< no operation inside the slice failed
  // Simulated (deterministic) results; 0 = not produced by this cell.
  double oae = 0;
  double ipc = 0;
  double probe_p99 = 0;
  double probe_samples = 0;
};

/// A workload cell: one model/direction arm on one input. `run` builds a
/// fresh engine, so every slice of a cell simulates the identical result.
struct Cell {
  std::string name;
  std::function<Slice()> run;
  bool counts_throughput = true;  ///< part of the branches_per_s geomean
};

/// Accounting of one cell's slices: host rates and digest checks.
struct CellLog {
  std::vector<double> rates;   ///< work / seconds per slice
  std::vector<double> scaled;  ///< rates scaled to the nominal host (untraced run)
  std::uint64_t expected = 0;
  bool have_expected = false;
  bool golden = false;  ///< expected digest came from the golden table
  std::uint64_t attempted = 0, failed = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count / definition, printed beside the value
};

/// Median of `v` (by copy); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// A benchmark workload: inputs made from the seed and the cells that
/// replay them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate inputs and build the first engine (the timed set-up).
  /// Calling it again regenerates everything from scratch.
  virtual void setup(std::uint64_t seed) = 0;
  virtual std::vector<Cell>& cells() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);
[[nodiscard]] const std::vector<std::string>& workload_names();

// ---------------------------------------------------------------------------
// Span tracer: spans live in memory and are written once, at exit. Spans
// wrap batches of a layer's calls (never single branches: a clock read
// costs as much as a short call).
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    double start = 0, end = 0;  ///< seconds since the tracer was created
  };

  Tracer() : origin_(Clock::now()) {}

  /// Open a span under the innermost open span; returns its index.
  std::int32_t begin(std::string_view name);
  void end(std::int32_t id);
  void set_run(std::uint32_t run) noexcept { run_ = run; }
  /// Append `other`'s spans, re-based onto this tracer's clock.
  void absorb(const Tracer& other);

  /// Σ over spans named `name` of (duration − time covered by children).
  [[nodiscard]] double self_seconds(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// One JSON object per line: name, start, end, parent, run.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::uint32_t run_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string_view name) : t_(t), id_(t ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// The traced run's layer suite: replays captured inputs through each
/// layer's public calls under spans and appends every per-layer metric,
/// plus `unattributed_share` for `opt.workload`, to `out`. Repeats the
/// suite until `budget_seconds` have passed and reports medians.
void run_layers(const Options& opt, Tracer& tracer, double budget_seconds,
                std::vector<Metric>& out);

}  // namespace perfbench
