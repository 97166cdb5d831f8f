#include "exp/scenario.h"

#include <cstdio>

#include "exp/json.h"

namespace stbpu::exp {

namespace {

std::string format_double(double d, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, d);
  std::string out = buf;
  // Keep double-typed fields recognizably floating-point in the JSON text
  // (integral values would otherwise render as bare integers): the compare
  // gate compares two integer literals as exact text and anything else by
  // value, telling the classes apart from the literal form alone.
  if (out.find_first_of(".eE") == std::string::npos &&
      out.find_first_not_of("-0123456789") == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::vector<const Scenario*>& registry() {
  // Deliberately immortal (never-destroyed) singleton: scenarios register
  // once and live for the whole process, and keeping the vector itself
  // alive through exit keeps every registered Scenario* reachable — so
  // LeakSanitizer sees "still reachable", not a leak. A plain static
  // vector would run its destructor before the leak check and orphan the
  // registry's contents.
  static auto* scenarios = new std::vector<const Scenario*>();
  return *scenarios;
}

}  // namespace

std::string Value::render() const {
  switch (type_) {
    case Type::kString: return json_quote(str_);
    case Type::kDouble: return format_double(num_, "%.10g");
    case Type::kU64: return std::to_string(u64_);
    case Type::kInt: return std::to_string(int_);
  }
  return "null";
}

std::string Value::render_exact() const {
  if (type_ == Type::kDouble) return format_double(num_, "%.17g");
  return render();
}

void register_scenario(const Scenario* scenario) { registry().push_back(scenario); }

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario* s : registry()) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

const std::vector<const Scenario*>& all_scenarios() { return registry(); }

}  // namespace stbpu::exp
