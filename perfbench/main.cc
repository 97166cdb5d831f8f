// STBPU performance benchmark: the program run.py builds and runs.
//
//   stbpu_perfbench --workload <replay_steady|replay_churn|ooo_core>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--golden <file>] [--out <dir>] [--emit-digests]
//
// Untraced (--trace 0): set up the workload several times (setup_s is the
// median), then run its cells round-robin for --seconds, checking every
// slice's simulated-result digest, and print the end-to-end metrics. A
// reference kernel runs between slices; the host-time metrics are scaled by
// its rate, so that a change of the host's speed cancels out.
// Traced (--trace 1): alternate traced and untraced rounds of the same
// loop (tracing_overhead), then run the per-layer suite (layers.cc) and
// print the per-layer metrics. The last stdout line is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Shared helpers (declared in perfbench.h).
// ---------------------------------------------------------------------------

std::uint64_t input_seed(std::uint64_t workload_seed, std::uint64_t salt) {
  std::uint64_t state = workload_seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t s = stbpu::util::splitmix64(state);
  return s == 0 ? 1 : s;
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  words_.push_back(bits);
}

std::uint64_t Digest::value() const {
  return stbpu::net::fnv1a64(words_.data(), words_.size() * sizeof(std::uint64_t));
}

bool GoldenTable::load(const std::string& path, std::string& err) {
  std::ifstream in(path);
  if (!in) return true;  // no table: every cell checks against its first slice
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, cell, hex, extra;
    if (!(fields >> workload >> seed >> cell >> hex) || (fields >> extra)) {
      err = path + ":" + std::to_string(lineno) + ": expected `<workload> <seed> <cell> <hex>`";
      return false;
    }
    char* end = nullptr;
    const std::uint64_t d = std::strtoull(hex.c_str(), &end, 16);
    if (end == hex.c_str() || *end != '\0') {
      err = path + ":" + std::to_string(lineno) + ": bad digest '" + hex + "'";
      return false;
    }
    digests_[workload + " " + seed + " " + cell] = d;
  }
  return true;
}

const std::uint64_t* GoldenTable::find(std::string_view workload, std::uint64_t seed,
                                       std::string_view cell) const {
  const std::string key = std::string(workload) + " " + std::to_string(seed) + " " +
                          std::string(cell);
  const auto it = digests_.find(key);
  return it == digests_.end() ? nullptr : &it->second;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::int32_t Tracer::begin(std::string_view name) {
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start = now();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::absorb(const Tracer& other) {
  const double offset = seconds_between(origin_, other.origin_);
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.name = intern(other.names_[s.name]);
    s.parent = s.parent < 0 ? -1 : s.parent + base;
    s.start += offset;
    s.end += offset;
    spans_.push_back(s);
  }
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

double Tracer::self_seconds(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return 0;
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) total += spans_[i].end - spans_[i].start - child[i];
  }
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"run\":%u}\n",
                  names_[s.name].c_str(), s.start, s.end, s.parent, s.run);
    out << buf;
  }
  return static_cast<bool>(out);
}

namespace {

constexpr int kSetupRepeats = 15;
/// Reference steps per second of the nominal host that host-time metrics
/// are scaled to: the 4-vCPU Xeon VM of README.md in its usual state.
constexpr double kReferenceNominal = 75e6;
constexpr int kMinRounds = 3;
/// Share of a traced run spent on the alternating end-to-end rounds; the
/// rest goes to the layer suite.
constexpr double kTracedE2eShare = 0.4;

bool parse_args(int argc, char** argv, Options& opt, std::string& err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](std::string& out) {
      if (i + 1 >= argc) {
        err = "missing value for " + a;
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload") {
      if (!value(opt.workload)) return false;
      have_workload = true;
    } else if (a == "--seed" || a == "--seconds" || a == "--trace") {
      if (!value(v)) return false;
      char* end = nullptr;
      if (a == "--seconds") {
        opt.seconds = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 3600) {
          err = "--seconds must be a number in (0, 3600]";
          return false;
        }
      } else {
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0') {
          err = a + " must be a non-negative integer";
          return false;
        }
        if (a == "--seed") {
          opt.seed = n;
        } else if (n > 1) {
          err = "--trace must be 0 or 1";
          return false;
        } else {
          opt.trace = n == 1;
        }
      }
    } else if (a == "--golden") {
      if (!value(opt.golden_path)) return false;
    } else if (a == "--out") {
      if (!value(opt.out_dir)) return false;
    } else if (a == "--emit-digests") {
      opt.emit_digests = true;
    } else {
      err = "unknown argument " + a;
      return false;
    }
  }
  if (!have_workload) {
    err = "--workload is required";
    return false;
  }
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_machine() {
  utsname u{};
  uname(&u);
  std::cout << "machine {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"kernel\": \""
            << json_escape(std::string(u.sysname) + " " + u.release) << "\", \"compiler\": \""
            << STBPU_PERFBENCH_COMPILER << "\", \"build_type\": \""
            << STBPU_PERFBENCH_BUILD_TYPE << "\"}\n";
}

/// Host-speed reference: a fixed walk over a 1 MB table with hash mixes,
/// data-dependent branches and random reads that miss L1, the kinds of work
/// the simulators do. It calls no library code, so no library change can
/// move it: a change of its rate is a change of the host's speed.
class Reference {
 public:
  Reference() : table_(kWords) {
    for (std::uint64_t& w : table_) w = stbpu::util::splitmix64(state_);
  }

  /// Run one timed slice; returns its rate in reference steps per second.
  double slice() {
    const auto t0 = Clock::now();
    std::uint64_t x = state_, acc = sink_;
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::uint64_t& w = table_[(x >> 23) & (kWords - 1)];
      if (((w ^ x) >> 61) < 3) {
        acc += w >> 7;
        w ^= x;
      } else {
        acc ^= w * 0x9E3779B97F4A7C15ULL;
      }
    }
    const double s = seconds_between(t0, Clock::now());
    state_ = x;
    sink_ = acc;
    return kSteps / s;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 17;
  static constexpr int kSteps = 100'000;
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 1, sink_ = 0;
};

/// Slice accounting for one workload run.
struct Loop {
  std::vector<CellLog> logs;         ///< digest checks of all slices; untraced rates
  std::vector<CellLog> traced_logs;  ///< rates of the slices run under a span
  std::vector<Slice> first;          ///< first slice of each cell (simulated values)
  int rounds = 0;
};

void init_logs(std::vector<CellLog>& logs, const Options& opt, Workload& w,
               const GoldenTable& golden) {
  logs.assign(w.cells().size(), CellLog{});
  for (std::size_t c = 0; c < logs.size(); ++c) {
    if (const std::uint64_t* d = golden.find(opt.workload, opt.seed, w.cells()[c].name)) {
      logs[c].expected = *d;
      logs[c].have_expected = true;
      logs[c].golden = true;
    }
  }
}

/// Count the slice as one operation; it fails when its digest differs from
/// the expected one (the golden digest, else the cell's first slice).
void check(CellLog& log, const Slice& s) {
  ++log.attempted;
  if (!log.have_expected) {
    log.expected = s.digest;
    log.have_expected = true;
  }
  if (s.digest != log.expected || !s.ok) ++log.failed;
}

/// `host` is the reference rate around the slice (0: not measured).
void record_rate(CellLog& log, const Slice& s, double host) {
  if (s.seconds <= 0) return;
  log.rates.push_back(s.work / s.seconds);
  if (host > 0) log.scaled.push_back(s.work / s.seconds * kReferenceNominal / host);
}

/// Round-robin over the cells until `seconds` have passed (at least
/// kMinRounds rounds). With a tracer, odd rounds run under spans. With a
/// reference, a reference slice runs between any two cell slices and each
/// cell slice is scaled by the geometric mean of the two around it.
Loop run_loop(const Options& opt, Workload& w, const GoldenTable& golden, double seconds,
              Tracer* tracer, Reference* ref) {
  Loop loop;
  auto& cells = w.cells();
  init_logs(loop.logs, opt, w, golden);
  loop.traced_logs.assign(cells.size(), CellLog{});
  loop.first.resize(cells.size());
  const auto start = Clock::now();
  double before = ref != nullptr ? ref->slice() : 0;
  for (;; ++loop.rounds) {
    const bool traced = tracer != nullptr && loop.rounds % 2 == 1;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Slice s;
      if (traced) {
        tracer->set_run(static_cast<std::uint32_t>(loop.rounds));
        ScopedSpan span(tracer, "e2e." + cells[c].name);
        s = cells[c].run();
      } else {
        s = cells[c].run();
      }
      double host = 0;
      if (ref != nullptr) {
        const double after = ref->slice();
        host = std::sqrt(before * after);
        before = after;
      }
      if (loop.rounds == 0) loop.first[c] = s;
      check(loop.logs[c], s);
      record_rate(traced ? loop.traced_logs[c] : loop.logs[c], s, host);
    }
    const int min_rounds = tracer != nullptr ? 2 * kMinRounds : kMinRounds;
    if (loop.rounds + 1 >= min_rounds && seconds_between(start, Clock::now()) >= seconds) {
      ++loop.rounds;
      break;
    }
  }
  return loop;
}

/// Geomean over throughput cells of the median slice rate, raw or scaled
/// to the nominal host.
double throughput(const std::vector<CellLog>& logs, const std::vector<Cell>& cells,
                  std::size_t& slices, bool scaled = false) {
  std::vector<double> medians;
  slices = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::vector<double>& rates = scaled ? logs[c].scaled : logs[c].rates;
    if (!cells[c].counts_throughput || rates.empty()) continue;
    medians.push_back(median(rates));
    slices += rates.size();
  }
  return geomean(medians);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-44s %18s  %-12s %s\n", "metric", "value", "unit", "note");
  for (const Metric& m : metrics) {
    std::printf("%-44s %18.6g  %-12s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("operations attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout.flush();
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_cells(const std::vector<Cell>& cells, const Loop& loop) {
  std::printf("%-40s %7s %16s %8s %s\n", "cell", "slices", "median rate/s", "failed",
              "digest reference");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellLog& l = loop.logs[c];
    std::printf("%-40s %7zu %16.6g %8llu %s\n", cells[c].name.c_str(), l.rates.size(),
                median(l.rates), static_cast<unsigned long long>(l.failed),
                l.golden ? "golden" : "first slice (seed not in golden table)");
  }
}

std::string count_note(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

int run_untraced(const Options& opt, Workload& w, const GoldenTable& golden) {
  Reference ref;
  std::vector<double> setups;
  double before = ref.slice();
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    w.setup(opt.seed);
    const double seconds = seconds_between(t0, Clock::now());
    const double after = ref.slice();
    setups.push_back(seconds * std::sqrt(before * after) / kReferenceNominal);
    before = after;
  }
  const Loop loop = run_loop(opt, w, golden, opt.seconds, nullptr, &ref);
  const auto& cells = w.cells();
  print_cells(cells, loop);

  std::uint64_t attempted = 0, failed = 0;
  double oae_sum = 0, inv_ipc = 0, p99_sum = 0, probe_samples = 0;
  std::size_t oae_n = 0, ipc_n = 0, p99_n = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    attempted += loop.logs[c].attempted;
    failed += loop.logs[c].failed;
    const Slice& s = loop.first[c];
    if (cells[c].counts_throughput && s.oae > 0) {
      oae_sum += s.oae;
      ++oae_n;
    }
    if (s.ipc > 0) {
      inv_ipc += 1.0 / s.ipc;
      ++ipc_n;
    }
    if (s.probe_samples > 0) {
      p99_sum += s.probe_p99;
      probe_samples += s.probe_samples;
      ++p99_n;
    }
  }
  std::size_t slices = 0;
  const double raw_bps = throughput(loop.logs, cells, slices);
  const double bps = throughput(loop.logs, cells, slices, true);
  std::printf("unscaled branches/s %.6g; host speed %.4g of nominal\n", raw_bps, raw_bps / bps);
  std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s",
       count_note(setups.size(), "set-ups, median, scaled to the nominal host")},
      {"branches_per_s", bps, "branches/s",
       count_note(slices, "slices; geomean over cells of median scaled slice rate")},
      {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"},
      {"acquire_probe_p99", p99_n ? p99_sum / static_cast<double>(p99_n) : 0, "probe_steps",
       count_note(static_cast<std::size_t>(probe_samples), "acquires sampled (deterministic)")},
      {"oae", oae_n ? oae_sum / static_cast<double>(oae_n) : 0, "fraction",
       count_note(oae_n, "cells, mean (deterministic)")},
      {"ipc", ipc_n ? static_cast<double>(ipc_n) / inv_ipc : 0, "instr/cycle",
       count_note(ipc_n, "cells, harmonic mean (deterministic)")},
  };
  const bool correct = failed == 0 && bps > 0;
  print_result(correct, attempted, failed, metrics);
  return 0;
}

int run_traced(const Options& opt, Workload& w, const GoldenTable& golden) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "setup");
    w.setup(opt.seed);
  }
  const Loop loop = run_loop(opt, w, golden, opt.seconds * kTracedE2eShare, &tracer, nullptr);
  const auto& cells = w.cells();
  print_cells(cells, loop);
  std::uint64_t attempted = 0, failed = 0;
  for (const CellLog& log : loop.logs) {
    attempted += log.attempted;
    failed += log.failed;
  }
  std::size_t n_plain = 0, n_traced = 0;
  const double plain = throughput(loop.logs, cells, n_plain);
  const double traced = throughput(loop.traced_logs, cells, n_traced);

  std::vector<Metric> metrics;
  run_layers(opt, tracer, opt.seconds * (1.0 - kTracedE2eShare), metrics);
  metrics.push_back({"tracing_overhead", plain > 0 && traced > 0 ? plain / traced - 1.0 : 0,
                     "fraction",
                     count_note(n_traced, "traced slices vs ") +
                         count_note(n_plain, "untraced, geomean time per branch")});
  if (!opt.out_dir.empty()) {
    const std::string path =
        opt.out_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write_jsonl(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
  print_result(failed == 0 && plain > 0, attempted, failed, metrics);
  return 0;
}

int emit_digests(const Options& opt, Workload& w) {
  w.setup(opt.seed);
  for (Cell& c : w.cells()) {
    const Slice s = c.run();
    if (!s.ok || c.run().digest != s.digest) {
      std::fprintf(stderr, "%s: an operation failed or the result did not repeat\n",
                   c.name.c_str());
      return 1;
    }
    std::printf("%s %llu %s %016llx\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), c.name.c_str(),
                static_cast<unsigned long long>(s.digest));
  }
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Serve every allocation from the heap and never hand memory back: a
  // slice's fresh engine then reuses pages an earlier slice faulted in, so
  // page-fault cost does not vary with glibc's adaptive mmap threshold.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opt;
  std::string err;
  if (!parse_args(argc, argv, opt, err)) {
    std::fprintf(stderr, "stbpu_perfbench: %s\n", err.c_str());
    return 2;
  }
  const auto workload = make_workload(opt.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "stbpu_perfbench: unknown workload '%s' (known:",
                 opt.workload.c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (opt.emit_digests) return emit_digests(opt, *workload);
  GoldenTable golden;
  if (!opt.golden_path.empty() && !golden.load(opt.golden_path, err)) {
    std::fprintf(stderr, "stbpu_perfbench: %s\n", err.c_str());
    return 2;
  }
  print_machine();
  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  return opt.trace ? run_traced(opt, *workload, golden) : run_untraced(opt, *workload, golden);
}
