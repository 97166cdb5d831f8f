// gtest printer for TageConfig. Without it gtest prints a parameter as a
// byte dump, which includes the address held by `name`; that address
// changes from build to build, and so would the parameterised test names.
#pragma once

#include <ostream>

#include "tage/tage.h"

namespace stbpu::tage {

inline void PrintTo(const TageConfig& cfg, std::ostream* os) { *os << cfg.name; }

}  // namespace stbpu::tage
