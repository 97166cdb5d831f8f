#include "exp/spec.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

#include "models/models.h"

namespace stbpu::exp {

namespace {

/// Shortest-round-trip double literal: %.17g always parses back to the same
/// bits, so spec → JSON → spec is exact for difficulty_r.
std::string double_literal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::optional<Scale> Scale::named(const std::string& name) {
  if (name == "quick") return Scale{};
  if (name == "paper") {
    Scale s;
    s.paper = true;
    s.trace_branches = 5'000'000;
    s.trace_warmup = 500'000;
    s.ooo_instructions = 100'000'000;  // paper: 110M incl. warm-up
    s.ooo_warmup = 10'000'000;
    return s;
  }
  return std::nullopt;
}

bool ExperimentSpec::selected(std::size_t index) const noexcept {
  if (points.empty()) return true;
  return std::binary_search(points.begin(), points.end(), index);
}

std::vector<std::size_t> ExperimentSpec::owned_points(std::size_t grid_size) const {
  std::vector<std::size_t> out;
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < grid_size; ++i) {
    if (!selected(i)) continue;
    if (ordinal % shard_count == shard_index) out.push_back(i);
    ++ordinal;
  }
  return out;
}

std::string ExperimentSpec::to_json(bool with_shard) const {
  std::string out = "{";
  out += "\"scenario\": " + json_quote(scenario);
  out += ", \"scale\": {\"name\": " + json_quote(scale.name());
  out += ", \"trace_branches\": " + std::to_string(scale.trace_branches);
  out += ", \"trace_warmup\": " + std::to_string(scale.trace_warmup);
  out += ", \"ooo_instructions\": " + std::to_string(scale.ooo_instructions);
  out += ", \"ooo_warmup\": " + std::to_string(scale.ooo_warmup) + "}";
  if (jobs != 0) out += ", \"jobs\": " + std::to_string(jobs);
  if (with_shard && sharded()) {
    out += ", \"shard\": {\"index\": " + std::to_string(shard_index) +
           ", \"count\": " + std::to_string(shard_count) + "}";
  }
  if (!points.empty()) {
    out += ", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(points[i]);
    }
    out += "]";
  }
  if (!trace_file.empty()) out += ", \"trace_file\": " + json_quote(trace_file);
  if (seed != 0) out += ", \"seed\": " + std::to_string(seed);
  if (!arms.empty()) {
    out += ", \"arms\": [";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (i != 0) out += ", ";
      out += json_quote(arms[i]);
    }
    out += "]";
  }
  if (monitor.any()) {
    out += ", \"monitor\": {";
    bool first = true;
    const auto field = [&](const char* key, const std::string& value) {
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + key + "\": " + value;
    };
    if (monitor.difficulty_r != 0.0) {
      field("difficulty_r", double_literal(monitor.difficulty_r));
    }
    if (monitor.misprediction_threshold != 0) {
      field("misprediction_threshold", std::to_string(monitor.misprediction_threshold));
    }
    if (monitor.eviction_threshold != 0) {
      field("eviction_threshold", std::to_string(monitor.eviction_threshold));
    }
    if (monitor.tagged_misprediction_threshold != 0) {
      field("tagged_misprediction_threshold",
            std::to_string(monitor.tagged_misprediction_threshold));
    }
    out += "}";
  }
  out += "}";
  return out;
}

namespace {

/// Integer field of width T: a non-integral, negative or out-of-range
/// literal is an error naming the field, never a wrapped, truncated or
/// saturated value.
template <class T>
bool want_uint(const JsonValue& v, T& out, const std::string& key, std::string& err) {
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  std::uint64_t u = 0;
  if (!v.as_uint(kMax, u)) {
    err = "'" + key + "' must be a non-negative integer no larger than " +
          std::to_string(kMax) + ", got " +
          (v.is_number() ? v.text() : std::string("a non-number"));
    return false;
  }
  out = static_cast<T>(u);
  return true;
}

bool want_positive_double(const JsonValue& v, double& out, const char* key,
                          std::string& err) {
  if (!v.is_number()) {
    err = std::string("'") + key + "' must be a number";
    return false;
  }
  const double d = v.as_double();
  if (!(d > 0.0)) {  // !(>) also rejects NaN
    err = std::string("'") + key + "' must be a positive number";
    return false;
  }
  out = d;
  return true;
}

}  // namespace

bool ExperimentSpec::from_json(const JsonValue& v, ExperimentSpec& out, std::string& err) {
  out = ExperimentSpec{};
  if (!v.is_object()) {
    err = "spec must be a JSON object";
    return false;
  }
  for (const auto& [key, val] : v.members()) {
    if (key == "scenario") {
      if (!val.is_string()) {
        err = "'scenario' must be a string";
        return false;
      }
      out.scenario = val.text();
    } else if (key == "scale") {
      if (!val.is_object()) {
        err = "'scale' must be an object";
        return false;
      }
      // The name seeds the preset; explicit budget fields override it.
      if (const JsonValue* name = val.find("name")) {
        const auto preset = Scale::named(name->text());
        if (!name->is_string() || !preset) {
          err = "unknown scale '" + name->text() + "' (use quick|paper)";
          return false;
        }
        out.scale = *preset;
      }
      for (const auto& [sk, sv] : val.members()) {
        if (sk == "name") continue;
        std::uint64_t* field = nullptr;
        if (sk == "trace_branches") field = &out.scale.trace_branches;
        if (sk == "trace_warmup") field = &out.scale.trace_warmup;
        if (sk == "ooo_instructions") field = &out.scale.ooo_instructions;
        if (sk == "ooo_warmup") field = &out.scale.ooo_warmup;
        if (field == nullptr) {
          err = "unknown scale field '" + sk + "'";
          return false;
        }
        if (!want_uint(sv, *field, sk, err)) return false;
      }
    } else if (key == "jobs") {
      if (!want_uint(val, out.jobs, "jobs", err)) return false;
    } else if (key == "shard") {
      if (!val.is_object()) {
        err = "'shard' must be an object";
        return false;
      }
      std::uint32_t index = 0, count = 1;
      if (const JsonValue* i = val.find("index")) {
        if (!want_uint(*i, index, "shard.index", err)) return false;
      }
      if (const JsonValue* c = val.find("count")) {
        if (!want_uint(*c, count, "shard.count", err)) return false;
      }
      if (count == 0 || index >= count) {
        err = "shard index must satisfy index < count";
        return false;
      }
      out.shard_index = index;
      out.shard_count = count;
    } else if (key == "points") {
      if (!val.is_array()) {
        err = "'points' must be an array of indices";
        return false;
      }
      for (const JsonValue& p : val.items()) {
        if (!want_uint(p, out.points.emplace_back(), "points", err)) return false;
      }
      std::sort(out.points.begin(), out.points.end());
      out.points.erase(std::unique(out.points.begin(), out.points.end()),
                       out.points.end());
    } else if (key == "trace_file") {
      if (!val.is_string()) {
        err = "'trace_file' must be a string";
        return false;
      }
      out.trace_file = val.text();
    } else if (key == "seed") {
      if (!want_uint(val, out.seed, "seed", err)) return false;
    } else if (key == "arms") {
      if (!val.is_array()) {
        err = "'arms' must be an array of model-kind names";
        return false;
      }
      for (const JsonValue& a : val.items()) {
        if (!a.is_string()) {
          err = "'arms' entries must be strings";
          return false;
        }
        models::ModelKind kind;
        if (!models::parse_model_kind(a.text(), kind, err)) {
          err += " in 'arms'";
          return false;
        }
        out.arms.push_back(a.text());
      }
    } else if (key == "monitor") {
      if (!val.is_object()) {
        err = "'monitor' must be an object";
        return false;
      }
      for (const auto& [mk, mv] : val.members()) {
        if (mk == "difficulty_r") {
          if (!want_positive_double(mv, out.monitor.difficulty_r, "monitor.difficulty_r",
                                    err)) {
            return false;
          }
        } else if (mk == "misprediction_threshold") {
          if (!want_uint(mv, out.monitor.misprediction_threshold,
                         "monitor.misprediction_threshold", err)) {
            return false;
          }
        } else if (mk == "eviction_threshold") {
          if (!want_uint(mv, out.monitor.eviction_threshold, "monitor.eviction_threshold",
                         err)) {
            return false;
          }
        } else if (mk == "tagged_misprediction_threshold") {
          if (!want_uint(mv, out.monitor.tagged_misprediction_threshold,
                         "monitor.tagged_misprediction_threshold", err)) {
            return false;
          }
        } else {
          err = "unknown monitor field '" + mk + "'";
          return false;
        }
      }
    } else {
      err = "unknown spec field '" + key + "'";
      return false;
    }
  }
  if (out.scenario.empty()) {
    err = "spec is missing 'scenario'";
    return false;
  }
  return true;
}

bool parse_shard(const std::string& text, std::uint32_t& index, std::uint32_t& count,
                 std::string& err) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    err = "shard must look like i/N (e.g. 0/2), got '" + text + "'";
    return false;
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t i = 0, n = 0;
  if (!parse_uint(std::string_view(text).substr(0, slash), kMax, i)) {
    err = "bad shard index in '" + text + "'";
    return false;
  }
  if (!parse_uint(std::string_view(text).substr(slash + 1), kMax, n) || n == 0) {
    err = "bad shard count in '" + text + "'";
    return false;
  }
  if (i >= n) {
    err = "shard index " + std::to_string(i) + " out of range for count " +
          std::to_string(n);
    return false;
  }
  index = static_cast<std::uint32_t>(i);
  count = static_cast<std::uint32_t>(n);
  return true;
}

bool parse_points(const std::string& text, std::vector<std::size_t>& out,
                  std::string& err) {
  out.clear();
  if (text.empty()) {
    err = "empty point list";
    return false;
  }
  constexpr std::uint64_t kMaxIndex = std::numeric_limits<std::size_t>::max();
  std::string_view rest = text;
  for (;;) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    const std::size_t dash = item.find('-');
    std::uint64_t first = 0, last = 0;
    if (!parse_uint(item.substr(0, dash), kMaxIndex, first) ||
        (dash != std::string_view::npos &&
         !parse_uint(item.substr(dash + 1), kMaxIndex, last))) {
      err = "bad point list '" + text + "'";
      return false;
    }
    if (dash == std::string_view::npos) last = first;
    if (last < first) {
      err = "bad point range in '" + text + "'";
      return false;
    }
    // Ranges materialize eagerly; cap them so an absurd (or maximal,
    // wrap-prone) range is a hard error instead of an OOM/hang. No grid
    // comes close to this — out-of-range indices are caught against the
    // actual grid size at run time.
    constexpr std::uint64_t kMaxPoints = 1'000'000;
    if (last - first >= kMaxPoints || out.size() + (last - first) >= kMaxPoints) {
      err = "point range in '" + text + "' is too large";
      return false;
    }
    for (std::uint64_t i = first; i <= last; ++i) out.push_back(i);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

}  // namespace stbpu::exp
