#include "exp/driver.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "exp/compare.h"
#include "exp/fabric.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "models/models.h"

namespace stbpu::exp {

namespace {

constexpr int kExitUsage = 2;

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: stbpu_bench <command> [options]\n"
               "\n"
               "commands:\n"
               "  list                       show all registered scenarios\n"
               "  describe <scenario>        show a scenario's point grid\n"
               "  run <scenario> [options]   execute a scenario\n"
               "  merge <shard.json>...      union shard files into BENCH_<name>.json\n"
               "  compare OLD.json NEW.json  diff two same-scenario BENCH files: exits\n"
               "                             nonzero when any field's value changed (every\n"
               "                             field is a deterministic simulation output)\n"
               "  worker                     serve shard assignments over TCP (the\n"
               "                             fabric's execution side)\n"
               "  dispatch <scenario>        partition the grid and execute it across\n"
               "                             --workers= with retry/timeout/local-fallback,\n"
               "                             then merge (byte-identical to a local run)\n"
               "\n"
               "run/describe options:\n"
               "  --scale=quick|paper        simulation budgets (default quick)\n"
               "  --jobs=N                   worker threads (default: hardware)\n"
               "  --shard=I/N                run the I-th of N even stripes of the\n"
               "                             (selected) point grid; writes\n"
               "                             BENCH_<name>.shard<I>of<N>.json\n"
               "  --points=LIST              run a subset, e.g. 0,3,7-9\n"
               "  --json=PATH                output path override\n"
               "  --spec=FILE                load an ExperimentSpec JSON (flags override)\n"
               "  --trace=PATH               replay an on-disk branch trace (trace-replay\n"
               "                             scenarios)\n"
               "  --seed=N                   model seed override (0 = scenario default)\n"
               "  --arms=KIND[,KIND]         defense-arm filter for multi-arm scenarios\n"
               "                             (attack_matrix), e.g. --arms=STBPU,CIBPU;\n"
               "                             names per models::to_string(ModelKind)\n"
               "  --difficulty-r=R           monitor difficulty factor (Γ = r·C,\n"
               "                             paper §VII-A; 0 = scenario default)\n"
               "  --gamma-m=N --gamma-e=N --gamma-tagged=N\n"
               "                             explicit Γ_M / Γ_E / tagged-Γ monitor\n"
               "                             thresholds (0 = derive from difficulty r)\n"
               "  --trace-branches=N --trace-warmup=N\n"
               "  --ooo-instructions=N --ooo-warmup=N\n"
               "                             individual budget overrides\n"
               "\n"
               "merge options:\n"
               "  --json=PATH                output path (default BENCH_<name>.json)\n"
               "\n"
               "compare options:\n"
               "  --ignore=KEY[,KEY]         exclude fields from the check\n"
               "                             (for a PR that intentionally changes a\n"
               "                             counter's meaning)\n"
               "\n"
               "worker options:\n"
               "  --listen=PORT              TCP port (0 = kernel-assigned)\n"
               "  --port-file=PATH           write the bound port here once listening\n"
               "  --jobs=N                   override each request's worker threads\n"
               "  --max-requests=N           exit after N accepted connections\n"
               "  --chaos=drop:P,stall:MS,corrupt:P,seed:S\n"
               "                             deterministic fault injection: connection\n"
               "                             drops, mid-stream stalls, corrupted and\n"
               "                             truncated payloads\n"
               "\n"
               "dispatch options (plus all run options except --shard/--json semantics):\n"
               "  --workers=HOST:PORT,...    worker endpoints (required)\n"
               "  --shards=N                 shard count (default: min(points, 2*workers))\n"
               "  --deadline-ms=N            per-attempt shard deadline (default 300000)\n"
               "  --connect-timeout-ms=N     TCP connect timeout (default 2000)\n"
               "  --retries=N                remote attempts per shard (default 3)\n"
               "  --backoff-ms=N             reconnect backoff base (default 50,\n"
               "                             exponential with deterministic jitter)\n"
               "  --no-local-fallback        fail instead of running unserved shards\n"
               "                             through the in-process pool\n");
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "stbpu_bench: %s\n\n", message.c_str());
  print_usage(stderr);
  return kExitUsage;
}

/// Integer flag value of width T, through the same parse_uint as spec
/// JSON: a sign, fraction or value beyond T's range is an error, never a
/// wrapped, truncated or saturated value.
template <class T>
bool parse_uint_flag(const std::string& arg, const char* prefix, T& out, std::string& err) {
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  std::uint64_t u = 0;
  if (!parse_uint(std::string_view(arg).substr(std::strlen(prefix)), kMax, u)) {
    err = "bad value in '" + arg + "' (want a non-negative integer no larger than " +
          std::to_string(kMax) + ")";
    return false;
  }
  out = static_cast<T>(u);
  return true;
}

bool parse_positive_double_flag(const char* arg, const char* prefix, double& out,
                                std::string& err) {
  const char* text = arg + std::strlen(prefix);
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) {
    err = std::string("bad value in '") + arg + "' (want a positive number)";
    return false;
  }
  out = v;
  return true;
}

struct RunOptions {
  ExperimentSpec spec;
  std::string json_path;  ///< empty = default naming
};

/// Strict run-flag parsing: every argument must be a known flag with a
/// well-formed value. Unknown arguments are errors, not warnings.
bool parse_run_flags(const std::vector<std::string>& args, RunOptions& out,
                     std::string& err) {
  const auto starts_with = [](const std::string& s, const char* p) {
    return s.rfind(p, 0) == 0;
  };
  // --spec files load first so explicit flags override their contents.
  for (const std::string& arg : args) {
    if (starts_with(arg, "--spec=")) {
      const std::string path = arg.substr(7);
      std::string text;
      if (!read_file(path, text)) {
        err = "cannot read spec file '" + path + "'";
        return false;
      }
      JsonValue doc;
      if (!json_parse(text, doc, err)) {
        err = "spec file '" + path + "': " + err;
        return false;
      }
      const std::string scenario = out.spec.scenario;
      if (!ExperimentSpec::from_json(doc, out.spec, err)) {
        err = "spec file '" + path + "': " + err;
        return false;
      }
      if (!scenario.empty() && out.spec.scenario != scenario) {
        err = "spec file '" + path + "' is for scenario '" + out.spec.scenario +
              "', not '" + scenario + "'";
        return false;
      }
    }
  }
  for (const std::string& arg : args) {
    if (starts_with(arg, "--spec=")) {
      continue;  // handled above
    } else if (starts_with(arg, "--scale=")) {
      const std::string name = arg.substr(8);
      const auto preset = Scale::named(name);
      if (!preset) {
        err = "unknown scale '" + name + "' (use quick|paper)";
        return false;
      }
      out.spec.scale = *preset;
    } else if (starts_with(arg, "--jobs=")) {
      if (!parse_uint_flag(arg, "--jobs=", out.spec.jobs, err)) return false;
    } else if (starts_with(arg, "--shard=")) {
      if (!parse_shard(arg.substr(8), out.spec.shard_index, out.spec.shard_count, err)) {
        return false;
      }
    } else if (starts_with(arg, "--points=")) {
      if (!parse_points(arg.substr(9), out.spec.points, err)) return false;
    } else if (starts_with(arg, "--json=")) {
      out.json_path = arg.substr(7);
    } else if (starts_with(arg, "--trace=")) {
      out.spec.trace_file = arg.substr(8);
    } else if (starts_with(arg, "--seed=")) {
      if (!parse_uint_flag(arg, "--seed=", out.spec.seed, err)) return false;
    } else if (starts_with(arg, "--arms=")) {
      out.spec.arms.clear();
      std::string list = arg.substr(7);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string name = list.substr(pos, comma - pos);
        models::ModelKind kind;
        if (!models::parse_model_kind(name, kind, err)) return false;
        out.spec.arms.push_back(name);
        pos = comma + 1;
      }
      if (out.spec.arms.empty()) {
        err = "empty arm list in '" + arg + "'";
        return false;
      }
    } else if (starts_with(arg, "--difficulty-r=")) {
      if (!parse_positive_double_flag(arg.c_str(), "--difficulty-r=",
                                      out.spec.monitor.difficulty_r, err)) {
        return false;
      }
    } else if (starts_with(arg, "--gamma-m=")) {
      if (!parse_uint_flag(arg, "--gamma-m=", out.spec.monitor.misprediction_threshold,
                           err)) {
        return false;
      }
    } else if (starts_with(arg, "--gamma-e=")) {
      if (!parse_uint_flag(arg, "--gamma-e=", out.spec.monitor.eviction_threshold, err)) {
        return false;
      }
    } else if (starts_with(arg, "--gamma-tagged=")) {
      if (!parse_uint_flag(arg, "--gamma-tagged=",
                           out.spec.monitor.tagged_misprediction_threshold, err)) {
        return false;
      }
    } else if (starts_with(arg, "--trace-branches=")) {
      if (!parse_uint_flag(arg, "--trace-branches=", out.spec.scale.trace_branches,
                           err)) {
        return false;
      }
    } else if (starts_with(arg, "--trace-warmup=")) {
      if (!parse_uint_flag(arg, "--trace-warmup=", out.spec.scale.trace_warmup, err)) {
        return false;
      }
    } else if (starts_with(arg, "--ooo-instructions=")) {
      if (!parse_uint_flag(arg, "--ooo-instructions=", out.spec.scale.ooo_instructions,
                           err)) {
        return false;
      }
    } else if (starts_with(arg, "--ooo-warmup=")) {
      if (!parse_uint_flag(arg, "--ooo-warmup=", out.spec.scale.ooo_warmup, err)) {
        return false;
      }
    } else {
      err = "unknown argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

const Scenario* lookup(const std::string& name) {
  const Scenario* s = find_scenario(name);
  if (s == nullptr) {
    std::fprintf(stderr, "stbpu_bench: unknown scenario '%s'; available:\n",
                 name.c_str());
    for (const Scenario* sc : all_scenarios()) {
      std::fprintf(stderr, "  %s\n", std::string(sc->name()).c_str());
    }
  }
  return s;
}

int cmd_list() {
  for (const Scenario* s : all_scenarios()) {
    std::printf("%-24s %s\n", std::string(s->name()).c_str(),
                std::string(s->title()).c_str());
  }
  return 0;
}

int cmd_describe(const std::string& name, const std::vector<std::string>& args) {
  RunOptions opt;
  std::string err;
  opt.spec.scenario = name;
  if (!parse_run_flags(args, opt, err)) return usage_error(err);
  const Scenario* s = lookup(name);
  if (s == nullptr) return kExitUsage;
  std::printf("%s — %s\n", std::string(s->name()).c_str(),
              std::string(s->title()).c_str());
  std::printf("spec: %s\n", opt.spec.to_json().c_str());
  const auto labels = s->point_labels(opt.spec);
  const auto owned = opt.spec.owned_points(labels.size());
  std::printf("%zu grid points:\n", labels.size());
  for (std::size_t i = 0, o = 0; i < labels.size(); ++i) {
    const bool mine = o < owned.size() && owned[o] == i;
    if (mine) ++o;
    std::printf("  [%4zu]%s %s\n", i, mine ? " " : "-", labels[i].c_str());
  }
  if (opt.spec.sharded() || !opt.spec.points.empty()) {
    std::printf("('-' marks points excluded by --points/--shard)\n");
  }
  return 0;
}

void print_rows(const Scenario& scenario, const ExperimentSpec& spec,
                const std::vector<PointResult>& points) {
  const ScenarioOutput output = scenario.aggregate(spec, points);
  for (const Row& row : output.rows) {
    std::printf("%-32s |", row.label.c_str());
    for (const auto& f : row.fields) {
      std::printf(" %s=%s", f.key.c_str(), f.value.render().c_str());
    }
    std::printf("\n");
  }
}

int cmd_run(const std::string& name, const std::vector<std::string>& args) {
  RunOptions opt;
  std::string err;
  opt.spec.scenario = name;
  if (!parse_run_flags(args, opt, err)) return usage_error(err);
  const Scenario* s = lookup(name);
  if (s == nullptr) return kExitUsage;

  std::printf("== %s: %s ==\n", std::string(s->name()).c_str(),
              std::string(s->title()).c_str());
  std::printf("spec: %s\n", opt.spec.to_json().c_str());

  RunOutcome outcome;
  if (!run_experiment(*s, opt.spec, outcome, err)) {
    std::fprintf(stderr, "stbpu_bench: %s\n", err.c_str());
    return 1;
  }
  std::printf("ran %zu/%zu grid points in %.2fs (%u workers)\n", outcome.ran.size(),
              outcome.labels.size(), outcome.seconds,
              worker_count(opt.spec.jobs, outcome.ran.size()));

  std::string path = opt.json_path;
  if (opt.spec.sharded()) {
    if (path.empty()) {
      path = "BENCH_" + std::string(s->name()) + ".shard" +
             std::to_string(opt.spec.shard_index) + "of" +
             std::to_string(opt.spec.shard_count) + ".json";
    }
    if (!write_file(path, shard_json(*s, opt.spec, outcome))) {
      std::fprintf(stderr, "stbpu_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote shard %u/%u to %s (merge shards with `stbpu_bench merge`)\n",
                opt.spec.shard_index, opt.spec.shard_count, path.c_str());
    return 0;
  }

  print_rows(*s, opt.spec, outcome.points);
  if (path.empty()) path = "BENCH_" + std::string(s->name()) + ".json";
  if (!write_file(path, final_json(*s, opt.spec, outcome.points))) {
    std::fprintf(stderr, "stbpu_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string json_path;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      return usage_error("unknown argument '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage_error("merge needs at least one shard file");

  std::vector<std::string> texts(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!read_file(paths[i], texts[i])) {
      std::fprintf(stderr, "stbpu_bench: cannot read %s\n", paths[i].c_str());
      return 1;
    }
  }
  std::string merged, scenario, err;
  if (!merge_shards(texts, paths, merged, scenario, err)) {
    std::fprintf(stderr, "stbpu_bench: merge failed: %s\n", err.c_str());
    return 1;
  }
  if (json_path.empty()) json_path = "BENCH_" + scenario + ".json";
  if (!write_file(json_path, merged)) {
    std::fprintf(stderr, "stbpu_bench: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("merged %zu shards into %s\n", paths.size(), json_path.c_str());
  return 0;
}

int cmd_worker(const std::vector<std::string>& args) {
  WorkerOptions opt;
  opt.verbose = true;
  bool have_listen = false;
  std::string err;
  for (const std::string& arg : args) {
    if (arg.rfind("--listen=", 0) == 0) {
      if (!parse_uint_flag(arg, "--listen=", opt.port, err)) return usage_error(err);
      have_listen = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_uint_flag(arg, "--jobs=", opt.jobs, err)) return usage_error(err);
    } else if (arg.rfind("--max-requests=", 0) == 0) {
      if (!parse_uint_flag(arg, "--max-requests=", opt.max_requests, err)) {
        return usage_error(err);
      }
    } else if (arg.rfind("--port-file=", 0) == 0) {
      opt.port_file = arg.substr(12);
    } else if (arg.rfind("--chaos=", 0) == 0) {
      if (!net::ChaosSpec::parse(arg.substr(8), opt.chaos, err)) {
        return usage_error(err);
      }
    } else {
      return usage_error("unknown argument '" + arg + "'");
    }
  }
  if (!have_listen) return usage_error("worker needs --listen=PORT");

  WorkerServer server;
  if (!server.start(opt, err)) {
    std::fprintf(stderr, "stbpu_bench: %s\n", err.c_str());
    return 1;
  }
  std::printf("worker listening on port %u%s%s\n", server.port(),
              opt.chaos.enabled() ? " with chaos " : "",
              opt.chaos.enabled() ? opt.chaos.to_string().c_str() : "");
  std::fflush(stdout);
  server.wait();
  std::printf("worker exiting after %llu accepted connection(s), %llu served\n",
              static_cast<unsigned long long>(server.accepted()),
              static_cast<unsigned long long>(server.served()));
  return 0;
}

int cmd_dispatch(const std::string& name, const std::vector<std::string>& args) {
  DispatchOptions fabric;
  std::vector<std::string> run_args;
  std::string err;
  for (const std::string& arg : args) {
    if (arg.rfind("--workers=", 0) == 0) {
      std::string list = arg.substr(10);
      std::size_t at = 0;
      while (at <= list.size()) {
        const std::size_t comma = list.find(',', at);
        const std::string endpoint = list.substr(at, comma - at);
        if (!endpoint.empty()) fabric.workers.push_back(endpoint);
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (!parse_uint_flag(arg, "--shards=", fabric.shard_count, err)) {
        return usage_error(err);
      }
      if (fabric.shard_count == 0) return usage_error("--shards must be at least 1");
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parse_uint_flag(arg, "--deadline-ms=", fabric.shard_deadline_ms, err)) {
        return usage_error(err);
      }
    } else if (arg.rfind("--connect-timeout-ms=", 0) == 0) {
      if (!parse_uint_flag(arg, "--connect-timeout-ms=", fabric.connect_timeout_ms, err)) {
        return usage_error(err);
      }
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!parse_uint_flag(arg, "--retries=", fabric.retry_limit, err)) {
        return usage_error(err);
      }
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      if (!parse_uint_flag(arg, "--backoff-ms=", fabric.backoff_base_ms, err)) {
        return usage_error(err);
      }
    } else if (arg == "--no-local-fallback") {
      fabric.local_fallback = false;
    } else {
      run_args.push_back(arg);
    }
  }
  if (fabric.workers.empty()) {
    return usage_error("dispatch needs --workers=host:port[,host:port...]");
  }

  RunOptions opt;
  opt.spec.scenario = name;
  if (!parse_run_flags(run_args, opt, err)) return usage_error(err);
  if (opt.spec.sharded()) {
    return usage_error("dispatch partitions the grid itself; use --shards=N, not "
                       "--shard=I/N");
  }
  const Scenario* s = lookup(name);
  if (s == nullptr) return kExitUsage;

  std::printf("== dispatch %s: %s ==\n", std::string(s->name()).c_str(),
              std::string(s->title()).c_str());
  std::printf("spec: %s\n", opt.spec.to_json().c_str());
  std::printf("workers:");
  for (const std::string& w : fabric.workers) std::printf(" %s", w.c_str());
  std::printf("\n");

  std::string merged;
  DispatchStats stats;
  if (!dispatch_experiment(*s, opt.spec, fabric, merged, stats, err)) {
    for (const std::string& e : stats.events) std::printf("  %s\n", e.c_str());
    std::fprintf(stderr, "stbpu_bench: dispatch failed: %s\n", err.c_str());
    return 1;
  }
  for (const std::string& e : stats.events) std::printf("  %s\n", e.c_str());
  std::printf(
      "dispatched %u shard(s): %u remote, %u local-fallback; %u failed attempt(s), "
      "%u re-dispatch(es), %u duplicate(s) discarded, %u rejected payload(s), "
      "%u timeout(s), %u connect failure(s)\n",
      stats.shard_count, stats.remote_shards, stats.local_shards, stats.failed_attempts,
      stats.redispatches, stats.duplicates_discarded, stats.rejected_payloads,
      stats.timeouts, stats.connect_failures);

  std::string path = opt.json_path;
  if (path.empty()) path = "BENCH_" + std::string(s->name()) + ".json";
  if (!write_file(path, merged)) {
    std::fprintf(stderr, "stbpu_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  CompareOptions opt;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg.rfind("--ignore=", 0) == 0) {
      std::string list = arg.substr(9);
      std::size_t at = 0;
      while (at <= list.size()) {
        const std::size_t comma = list.find(',', at);
        const std::string key = list.substr(at, comma - at);
        if (!key.empty()) opt.ignore_keys.push_back(key);
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg.rfind("--", 0) == 0) {
      return usage_error("unknown argument '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage_error("compare needs exactly OLD.json NEW.json");

  std::string old_text, new_text, err;
  if (!read_file(paths[0], old_text)) {
    std::fprintf(stderr, "stbpu_bench: cannot read %s\n", paths[0].c_str());
    return 1;
  }
  if (!read_file(paths[1], new_text)) {
    std::fprintf(stderr, "stbpu_bench: cannot read %s\n", paths[1].c_str());
    return 1;
  }
  CompareReport report;
  if (!compare_bench(old_text, new_text, opt, report, err)) {
    std::fprintf(stderr, "stbpu_bench: compare failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("== compare %s: %s -> %s ==\n", report.bench.c_str(), paths[0].c_str(),
              paths[1].c_str());
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const CompareFinding& r : report.regressions) {
    std::printf("CORRECTNESS REGRESSION %-9s | %s: %s != %s\n",
                r.row.empty() ? "(meta)" : r.row.c_str(), r.key.c_str(),
                r.old_value.c_str(), r.new_value.c_str());
  }
  std::printf("%zu fields compared: %zu correctness regression(s), %zu note(s)\n",
              report.compared_fields, report.regressions.size(), report.notes.size());
  if (!report.ok()) {
    std::fprintf(stderr, "stbpu_bench: field values changed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int driver_main(int argc, char** argv) {
  register_builtin_scenarios();
  if (argc < 2) {
    print_usage(stderr);
    return kExitUsage;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (command == "list") {
    if (!args.empty()) return usage_error("list takes no arguments");
    return cmd_list();
  }
  if (command == "describe" || command == "run") {
    if (args.empty() || args[0].rfind("--", 0) == 0) {
      return usage_error(command + " needs a scenario name");
    }
    const std::string name = args[0];
    args.erase(args.begin());
    return command == "run" ? cmd_run(name, args) : cmd_describe(name, args);
  }
  if (command == "dispatch") {
    // The scenario name may come before or after the fabric flags
    // (`dispatch --workers=... fig5_smt` reads naturally).
    std::string name;
    for (auto it = args.begin(); it != args.end(); ++it) {
      if (it->rfind("--", 0) != 0) {
        name = *it;
        args.erase(it);
        break;
      }
    }
    if (name.empty()) return usage_error("dispatch needs a scenario name");
    return cmd_dispatch(name, args);
  }
  if (command == "worker") return cmd_worker(args);
  if (command == "merge") return cmd_merge(args);
  if (command == "compare") return cmd_compare(args);
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  return usage_error("unknown command '" + command + "'");
}

int scenario_main(const char* scenario, int argc, char** argv) {
  register_builtin_scenarios();
  std::vector<std::string> args(argv + 1, argv + argc);
  return cmd_run(scenario, args);
}

}  // namespace stbpu::exp
