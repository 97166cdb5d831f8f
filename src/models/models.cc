#include "models/models.h"

namespace stbpu::models {

namespace {

// Single source of truth for kind <-> name: to_string, the parsers and
// all_*_kinds all walk these tables, so adding an enum entry without a row
// here is a -Wswitch error in to_string and nothing else can drift.
struct ModelRow {
  ModelKind kind;
  const char* name;
};
constexpr ModelRow kModelRows[] = {
    {ModelKind::kUnprotected, "unprotected"},
    {ModelKind::kUcode1, "ucode1_IBPB+IBRS"},
    {ModelKind::kUcode2, "ucode2_IBPB+IBRS+STIBP"},
    {ModelKind::kConservative, "conservative"},
    {ModelKind::kStbpu, "STBPU"},
    {ModelKind::kCibpu, "CIBPU"},
    {ModelKind::kXorIsolation, "XOR_isolation"},
};

struct DirectionRow {
  DirectionKind kind;
  const char* name;
};
constexpr DirectionRow kDirectionRows[] = {
    {DirectionKind::kSklCond, "SKLCond"},
    {DirectionKind::kTage8, "TAGE_SC_L_8KB"},
    {DirectionKind::kTage64, "TAGE_SC_L_64KB"},
    {DirectionKind::kPerceptron, "PerceptronBP"},
};

constexpr ModelKind kAllModelKinds[] = {
    ModelKind::kUnprotected, ModelKind::kUcode1,      ModelKind::kUcode2,
    ModelKind::kConservative, ModelKind::kStbpu,      ModelKind::kCibpu,
    ModelKind::kXorIsolation,
};
constexpr DirectionKind kAllDirectionKinds[] = {
    DirectionKind::kSklCond, DirectionKind::kTage8, DirectionKind::kTage64,
    DirectionKind::kPerceptron,
};

template <class Row, class Kind, std::size_t N>
bool parse_kind(const Row (&rows)[N], const char* what, std::string_view name,
                Kind& out, std::string& err) {
  for (const Row& row : rows) {
    if (name == row.name) {
      out = row.kind;
      return true;
    }
  }
  err = std::string("unknown ") + what + " kind '" + std::string(name) +
        "' (registered:";
  for (const Row& row : rows) {
    err += ' ';
    err += row.name;
    err += &row == &rows[N - 1] ? ')' : ',';
  }
  return false;
}

}  // namespace

std::string to_string(ModelKind m) {
  switch (m) {
    case ModelKind::kUnprotected:
    case ModelKind::kUcode1:
    case ModelKind::kUcode2:
    case ModelKind::kConservative:
    case ModelKind::kStbpu:
    case ModelKind::kCibpu:
    case ModelKind::kXorIsolation:
      break;
  }
  for (const ModelRow& row : kModelRows) {
    if (row.kind == m) return row.name;
  }
  return "?";
}

std::string to_string(DirectionKind d) {
  switch (d) {
    case DirectionKind::kSklCond:
    case DirectionKind::kTage8:
    case DirectionKind::kTage64:
    case DirectionKind::kPerceptron:
      break;
  }
  for (const DirectionRow& row : kDirectionRows) {
    if (row.kind == d) return row.name;
  }
  return "?";
}

std::span<const ModelKind> all_model_kinds() { return kAllModelKinds; }
std::span<const DirectionKind> all_direction_kinds() { return kAllDirectionKinds; }

bool parse_model_kind(std::string_view name, ModelKind& out, std::string& err) {
  return parse_kind(kModelRows, "model", name, out, err);
}

bool parse_direction_kind(std::string_view name, DirectionKind& out,
                          std::string& err) {
  return parse_kind(kDirectionRows, "direction", name, out, err);
}

}  // namespace stbpu::models
