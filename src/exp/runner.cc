#include "exp/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

namespace stbpu::exp {

unsigned worker_count(unsigned requested, std::size_t jobs) {
  unsigned n = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  if (jobs != 0 && n > jobs) n = static_cast<unsigned>(jobs);
  return n;
}

namespace {

/// Run every job, `workers` at a time (atomic work-stealing index). Each
/// job owns its slot, so sweeps stay deterministic regardless of
/// scheduling.
void run_parallel(const std::vector<std::function<void()>>& jobs, unsigned workers) {
  const unsigned n = worker_count(workers, jobs.size());
  if (n <= 1) {
    for (const auto& job : jobs) job();
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
        jobs[i]();
      }
    });
  }
  for (auto& t : pool) t.join();
}

void append_fields_row(std::string& out, const std::vector<Field>& fields,
                       bool with_label, const std::string& label) {
  out += "{";
  bool first = true;
  if (with_label) {
    out += "\"label\": " + json_quote(label);
    first = false;
  }
  for (const auto& f : fields) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(f.key) + ": " + f.value.render();
  }
  out += "}";
}

}  // namespace

bool run_experiment(const Scenario& scenario, const ExperimentSpec& spec,
                    RunOutcome& out, std::string& err) {
  out = RunOutcome{};
  out.labels = scenario.point_labels(spec);
  for (const std::size_t p : spec.points) {
    if (p >= out.labels.size()) {
      err = "point " + std::to_string(p) + " out of range (grid has " +
            std::to_string(out.labels.size()) + " points)";
      return false;
    }
  }
  out.points.resize(out.labels.size());
  out.ran = spec.owned_points(out.labels.size());

  // A run_point exception (bad trace file, I/O failure) must fail the run
  // with a message, not std::terminate a pool worker; the first error wins.
  std::mutex error_mutex;
  std::string first_error;
  const auto run_one = [&](std::size_t index) {
    try {
      out.points[index] = scenario.run_point(spec, index);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.empty()) {
        first_error = "point " + std::to_string(index) + " ('" + out.labels[index] +
                      "') failed: " + e.what();
      }
    }
  };

  std::vector<std::function<void()>> jobs;
  jobs.reserve(out.ran.size());
  for (const std::size_t index : out.ran) {
    jobs.emplace_back([&run_one, index] { run_one(index); });
  }
  const auto start = std::chrono::steady_clock::now();
  run_parallel(jobs, spec.jobs);
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!first_error.empty()) {
    err = first_error;
    return false;
  }
  return true;
}

std::string final_json(const Scenario& scenario, const ExperimentSpec& spec,
                       const std::vector<PointResult>& points) {
  const ScenarioOutput output = scenario.aggregate(spec, points);
  std::string out = "{\n  \"bench\": " + json_quote(std::string(scenario.name())) + ",\n";
  out += "  \"scale\": " + json_quote(spec.scale.name()) + ",\n";
  for (const auto& f : output.meta) {
    out += "  " + json_quote(f.key) + ": " + f.value.render() + ",\n";
  }
  out += "  \"rows\": [";
  for (std::size_t i = 0; i < output.rows.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_fields_row(out, output.rows[i].fields, /*with_label=*/true,
                      output.rows[i].label);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string shard_json(const Scenario& scenario, const ExperimentSpec& spec,
                       const RunOutcome& outcome) {
  std::string out = "{\n  \"format\": \"stbpu-shard-v1\",\n";
  out += "  \"bench\": " + json_quote(std::string(scenario.name())) + ",\n";
  out += "  \"spec\": " + spec.to_json(/*with_shard=*/true) + ",\n";
  out += "  \"points\": [";
  bool first = true;
  for (const std::size_t index : outcome.ran) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"index\": " + std::to_string(index) +
           ", \"label\": " + json_quote(outcome.labels[index]) + ", \"fields\": [";
    const auto& fields = outcome.points[index].fields;
    for (std::size_t j = 0; j < fields.size(); ++j) {
      if (j != 0) out += ", ";
      const char* tag = "s";
      switch (fields[j].value.type()) {
        case Value::Type::kString: tag = "s"; break;
        case Value::Type::kDouble: tag = "d"; break;
        case Value::Type::kU64: tag = "u"; break;
        case Value::Type::kInt: tag = "i"; break;
      }
      // Split concatenation (GCC 12 -Wrestrict false positive on
      // `"lit" + std::string&&` chains).
      out += "[";
      out += json_quote(fields[j].key);
      out += ", \"";
      out += tag;
      out += "\", ";
      out += fields[j].value.type() == Value::Type::kString
                 ? json_quote(fields[j].value.str())
                 : fields[j].value.render_exact();
      out += "]";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

bool parse_shard_field(const JsonValue& v, Field& out, std::string& err) {
  if (!v.is_array() || v.items().size() != 3 || !v.items()[0].is_string() ||
      !v.items()[1].is_string()) {
    err = "malformed shard field (expected [key, type, value])";
    return false;
  }
  out.key = v.items()[0].text();
  const std::string& tag = v.items()[1].text();
  const JsonValue& val = v.items()[2];
  if (tag == "s") {
    if (!val.is_string()) {
      err = "shard field '" + out.key + "': expected string value";
      return false;
    }
    out.value = Value(val.text());
  } else if (tag == "d") {
    if (!val.is_number()) {
      err = "shard field '" + out.key + "': expected numeric value";
      return false;
    }
    out.value = Value(val.as_double());
  } else if (tag == "u") {
    std::uint64_t u = 0;
    if (!val.as_uint(std::numeric_limits<std::uint64_t>::max(), u)) {
      err = "shard field '" + out.key + "': expected non-negative integer value";
      return false;
    }
    out.value = Value(u);
  } else if (tag == "i") {
    // A decimal integer within int's range, never truncated into one.
    const std::string& text = val.text();
    const bool negative = val.is_number() && !text.empty() && text[0] == '-';
    constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
    std::uint64_t magnitude = 0;
    if (!val.is_number() ||
        !parse_uint(std::string_view(text).substr(negative ? 1 : 0),
                    negative ? kIntMax + 1 : kIntMax, magnitude)) {
      err = "shard field '" + out.key + "': expected an integer in int range, got " +
            (val.is_number() ? text : std::string("a non-number"));
      return false;
    }
    out.value = Value(static_cast<int>(negative ? -static_cast<std::int64_t>(magnitude)
                                                : static_cast<std::int64_t>(magnitude)));
  } else {
    err = "shard field '" + out.key + "': unknown type tag '" + tag + "'";
    return false;
  }
  return true;
}

}  // namespace

namespace {

/// Exact equality of two parsed point payloads (key order, type tags and
/// bit-identical values — %.17g rendering uniquely identifies doubles).
/// Straggler re-dispatch legitimately produces byte-identical duplicates;
/// anything else claiming the same shard slot is corruption.
bool same_point(const PointResult& a, const PointResult& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (std::size_t i = 0; i < a.fields.size(); ++i) {
    const Field& fa = a.fields[i];
    const Field& fb = b.fields[i];
    if (fa.key != fb.key || fa.value.type() != fb.value.type()) return false;
    if (fa.value.type() == Value::Type::kString) {
      if (fa.value.str() != fb.value.str()) return false;
    } else if (fa.value.render_exact() != fb.value.render_exact()) {
      return false;
    }
  }
  return true;
}

std::string at_offset(const JsonValue& v) {
  return " (at byte offset " + std::to_string(v.offset()) + ")";
}

}  // namespace

bool merge_shards(const std::vector<std::string>& shard_texts, std::string& out_json,
                  std::string& out_scenario, std::string& err) {
  std::vector<std::string> names(shard_texts.size());
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = "shard " + std::to_string(i);
  return merge_shards(shard_texts, names, out_json, out_scenario, err);
}

bool merge_shards(const std::vector<std::string>& shard_texts,
                  const std::vector<std::string>& shard_names, std::string& out_json,
                  std::string& out_scenario, std::string& err) {
  if (shard_texts.empty()) {
    err = "no shard files to merge";
    return false;
  }
  if (shard_names.size() != shard_texts.size()) {
    err = "shard name/text count mismatch";
    return false;
  }

  ExperimentSpec spec;
  bool have_spec = false;
  std::vector<PointResult> points;
  std::vector<bool> have_point;
  std::vector<std::string> labels;
  const Scenario* scenario = nullptr;

  for (std::size_t si = 0; si < shard_texts.size(); ++si) {
    const std::string& where = shard_names[si];
    JsonValue doc;
    if (!json_parse(shard_texts[si], doc, err)) {
      err = where + ": " + err;
      return false;
    }
    const JsonValue* format = doc.find("format");
    if (format == nullptr || format->text() != "stbpu-shard-v1") {
      err = where + ": not a stbpu shard file (missing format tag)" +
            at_offset(format != nullptr ? *format : doc);
      return false;
    }
    const JsonValue* spec_v = doc.find("spec");
    if (spec_v == nullptr) {
      err = where + ": missing spec" + at_offset(doc);
      return false;
    }
    ExperimentSpec shard_spec;
    if (!ExperimentSpec::from_json(*spec_v, shard_spec, err)) {
      err = where + ": " + err + at_offset(*spec_v);
      return false;
    }
    if (!have_spec) {
      spec = shard_spec;
      // Shard identity and worker count are execution details, not sweep
      // identity — shards run with different --jobs still merge.
      spec.shard_index = 0;
      spec.shard_count = 1;
      spec.jobs = 0;
      have_spec = true;
      scenario = find_scenario(spec.scenario);
      if (scenario == nullptr) {
        err = where + ": unknown scenario '" + spec.scenario + "'";
        return false;
      }
      labels = scenario->point_labels(spec);
      points.resize(labels.size());
      have_point.assign(labels.size(), false);
    } else {
      ExperimentSpec normalized = shard_spec;
      normalized.shard_index = 0;
      normalized.shard_count = 1;
      normalized.jobs = 0;
      if (!(normalized == spec)) {
        err = where + ": spec differs from the first shard's (same sweep required)" +
              at_offset(*spec_v);
        return false;
      }
    }

    const JsonValue* pts = doc.find("points");
    if (pts == nullptr || !pts->is_array()) {
      err = where + ": missing points array" + at_offset(doc);
      return false;
    }
    for (const JsonValue& pv : pts->items()) {
      const JsonValue* index_v = pv.find("index");
      const JsonValue* label_v = pv.find("label");
      const JsonValue* fields_v = pv.find("fields");
      std::uint64_t index = 0;
      if (index_v == nullptr || label_v == nullptr || fields_v == nullptr ||
          !fields_v->is_array() ||
          !index_v->as_uint(std::numeric_limits<std::uint64_t>::max(), index)) {
        err = where + ": malformed point entry" + at_offset(pv);
        return false;
      }
      if (index >= labels.size()) {
        err = where + ": point index " + std::to_string(index) + " out of range" +
              at_offset(*index_v);
        return false;
      }
      if (labels[index] != label_v->text()) {
        err = where + ": point " + std::to_string(index) + " label '" +
              label_v->text() + "' does not match grid label '" + labels[index] + "'" +
              at_offset(*label_v);
        return false;
      }
      PointResult pr;
      for (const JsonValue& fv : fields_v->items()) {
        Field f;
        if (!parse_shard_field(fv, f, err)) {
          err = where + ": " + err + at_offset(fv);
          return false;
        }
        pr.fields.push_back(std::move(f));
      }
      if (have_point[index]) {
        // Duplicate-identical is legitimate (a straggler's re-dispatched
        // shard landing twice); duplicate-but-different is corruption and
        // must never be silently resolved either way.
        if (same_point(points[index], pr)) continue;
        err = where + ": point " + std::to_string(index) + " ('" + labels[index] +
              "') duplicated with a different payload" + at_offset(pv);
        return false;
      }
      points[index] = std::move(pr);
      have_point[index] = true;
    }
  }

  // Completeness: the union must cover the selected grid exactly.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (spec.selected(i) && !have_point[i]) {
      err = "incomplete merge: point " + std::to_string(i) + " ('" + labels[i] +
            "') missing from every shard";
      return false;
    }
  }

  out_json = final_json(*scenario, spec, points);
  out_scenario = spec.scenario;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  // Crash-safe: write the complete content to <path>.tmp, then rename over
  // the target. A process killed mid-write leaves at worst a stale .tmp —
  // never a truncated BENCH/shard JSON at `path` that a later merge or
  // compare would choke on — and a failed write leaves an existing `path`
  // untouched.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = content.empty() || std::fwrite(content.data(), content.size(), 1, f) == 1;
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace stbpu::exp
