// BENCH_*.json comparison — the CI regression gate's core logic
// (`stbpu_bench compare OLD.json NEW.json`). Every field a scenario emits
// is a deterministic simulation output (wall-clock measurement lives in
// perfbench/), so
//   * any changed value on a row + key present in both files is a fatal
//     regression: strings (identical_stats, sections), integer counters
//     (measured branches, thresholds, rerandomization counts) and
//     floating-point results (rates, reductions, normalized IPC) alike;
//   * a pure formatting drift that keeps a number's value ("1" vs "1.0")
//     is not a change; two integer literals always compare as text, so
//     counters beyond 2^53 stay exact;
//   * rows or keys present in only one file are advisory notes (scenario
//     grids legitimately evolve between PRs), as is a scale mismatch note
//     when the two files were produced at different --scale presets (then
//     nothing is comparable and the files are only inventoried).
#pragma once

#include <string>
#include <vector>

namespace stbpu::exp {

struct CompareOptions {
  /// Keys excluded from the fatal check (escape hatch for a PR that
  /// intentionally changes a counter's meaning: `--ignore=key,key`).
  std::vector<std::string> ignore_keys;
};

struct CompareFinding {
  std::string row;        ///< row label ("" for top-level meta fields)
  std::string key;
  std::string old_value;  ///< raw JSON literal text
  std::string new_value;
};

struct CompareReport {
  std::string bench;                        ///< scenario name (from NEW)
  std::vector<CompareFinding> regressions;  ///< fatal value mismatches
  std::vector<std::string> notes;           ///< grid drift, scale mismatch, ...
  std::size_t compared_fields = 0;          ///< fields checked on matched rows

  [[nodiscard]] bool ok() const noexcept { return regressions.empty(); }
};

/// Compare two BENCH_*.json texts. Returns false (with `err`) only on
/// malformed input or mismatched scenarios — a correctness regression is a
/// successful comparison with report.ok() == false.
bool compare_bench(const std::string& old_text, const std::string& new_text,
                   const CompareOptions& opt, CompareReport& out, std::string& err);

}  // namespace stbpu::exp
