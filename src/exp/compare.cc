#include "exp/compare.h"

#include <algorithm>
#include <map>
#include <utility>

#include "exp/json.h"

namespace stbpu::exp {

namespace {

/// A bare (optionally signed) digit run — the literal form of the kU64/kInt
/// writers. Doubles always carry '.', 'e' or 'E' (scenario.cc's
/// format_double guarantees it for integral values), so two integer
/// literals are compared as text, never through a lossy double.
bool is_integer_literal(const std::string& t) {
  if (t.empty()) return false;
  std::size_t i = t[0] == '-' ? 1 : 0;
  if (i >= t.size()) return false;
  for (; i < t.size(); ++i) {
    if (t[i] < '0' || t[i] > '9') return false;
  }
  return true;
}

std::string literal_text(const JsonValue& v) {
  if (v.is_string()) return "\"" + v.text() + "\"";
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return v.text();  // numbers keep their raw literal text
}

struct Comparer {
  const CompareOptions& opt;
  CompareReport& report;

  [[nodiscard]] bool ignored(const std::string& key) const {
    return std::find(opt.ignore_keys.begin(), opt.ignore_keys.end(), key) !=
           opt.ignore_keys.end();
  }

  void compare_field(const std::string& row, const std::string& key,
                     const JsonValue& oldv, const JsonValue& newv) {
    if (ignored(key)) return;
    ++report.compared_fields;
    const std::string old_text = literal_text(oldv);
    const std::string new_text = literal_text(newv);
    if (old_text == new_text) return;

    // A pure formatting drift that preserves a number's value ("1" vs
    // "1.0") is not a change. Two integer literals with different text are
    // different counters, even where doubles would round them together.
    if (oldv.is_number() && newv.is_number() &&
        !(is_integer_literal(oldv.text()) && is_integer_literal(newv.text())) &&
        oldv.as_double() == newv.as_double()) {
      return;
    }
    report.regressions.push_back(
        {.row = row, .key = key, .old_value = old_text, .new_value = new_text});
  }

  /// Compare the members of two field-holding objects, noting keys present
  /// on only one side.
  void compare_objects(const std::string& row, const JsonValue& oldo,
                       const JsonValue& newo,
                       const std::vector<std::string>& skip_keys) {
    const auto skipped = [&](const std::string& k) {
      return std::find(skip_keys.begin(), skip_keys.end(), k) != skip_keys.end();
    };
    std::string only_old, only_new;
    for (const auto& [key, value] : oldo.members()) {
      if (skipped(key)) continue;
      if (const JsonValue* nv = newo.find(key)) {
        compare_field(row, key, value, *nv);
      } else {
        if (!only_old.empty()) only_old += ", ";
        only_old += key;
      }
    }
    for (const auto& [key, value] : newo.members()) {
      (void)value;
      if (!skipped(key) && oldo.find(key) == nullptr) {
        if (!only_new.empty()) only_new += ", ";
        only_new += key;
      }
    }
    const std::string where = row.empty() ? "top level" : "row '" + row + "'";
    if (!only_old.empty()) {
      report.notes.push_back(where + ": keys only in OLD (skipped): " + only_old);
    }
    if (!only_new.empty()) {
      report.notes.push_back(where + ": keys only in NEW (skipped): " + only_new);
    }
  }
};

bool parse_bench(const std::string& text, const char* which, JsonValue& doc,
                 std::string& bench, std::string& scale, std::string& err) {
  if (!json_parse(text, doc, err)) {
    err = std::string(which) + ": " + err;
    return false;
  }
  if (!doc.is_object()) {
    err = std::string(which) + ": not a JSON object";
    return false;
  }
  const JsonValue* b = doc.find("bench");
  if (b == nullptr || !b->is_string()) {
    err = std::string(which) + ": missing \"bench\" (not a BENCH_*.json file?)";
    return false;
  }
  bench = b->text();
  const JsonValue* s = doc.find("scale");
  scale = s != nullptr && s->is_string() ? s->text() : "";
  return true;
}

}  // namespace

bool compare_bench(const std::string& old_text, const std::string& new_text,
                   const CompareOptions& opt, CompareReport& out, std::string& err) {
  out = CompareReport{};
  JsonValue old_doc, new_doc;
  std::string old_bench, new_bench, old_scale, new_scale;
  if (!parse_bench(old_text, "OLD", old_doc, old_bench, old_scale, err)) return false;
  if (!parse_bench(new_text, "NEW", new_doc, new_bench, new_scale, err)) return false;
  if (old_bench != new_bench) {
    err = "scenario mismatch: OLD is '" + old_bench + "', NEW is '" + new_bench + "'";
    return false;
  }
  out.bench = new_bench;

  if (old_scale != new_scale) {
    // Different budgets: nothing is comparable (counters legitimately
    // differ); inventory only.
    out.notes.push_back("scale mismatch (OLD=" + old_scale + ", NEW=" + new_scale +
                        "): fields not compared");
    return true;
  }

  Comparer cmp{.opt = opt, .report = out};
  // Top-level meta fields (everything but the row array and the identity
  // fields handled above).
  cmp.compare_objects("", old_doc, new_doc, {"bench", "scale", "rows"});

  // Rows matched by label; grid drift (new/removed rows) is advisory.
  const JsonValue* old_rows = old_doc.find("rows");
  const JsonValue* new_rows = new_doc.find("rows");
  std::map<std::string, const JsonValue*> old_by_label;
  if (old_rows != nullptr && old_rows->is_array()) {
    for (const JsonValue& row : old_rows->items()) {
      if (const JsonValue* l = row.find("label")) old_by_label[l->text()] = &row;
    }
  }
  std::map<std::string, bool> matched;
  if (new_rows != nullptr && new_rows->is_array()) {
    for (const JsonValue& row : new_rows->items()) {
      const JsonValue* l = row.find("label");
      if (l == nullptr) continue;
      const auto it = old_by_label.find(l->text());
      if (it == old_by_label.end()) {
        out.notes.push_back("row '" + l->text() + "' only in NEW (skipped)");
        continue;
      }
      matched[l->text()] = true;
      cmp.compare_objects(l->text(), *it->second, row, {"label"});
    }
  }
  for (const auto& [label, row] : old_by_label) {
    (void)row;
    if (!matched.contains(label)) {
      out.notes.push_back("row '" + label + "' only in OLD (skipped)");
    }
  }
  return true;
}

}  // namespace stbpu::exp
