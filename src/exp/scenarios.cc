#include "exp/scenario.h"
#include "exp/scenarios_internal.h"

namespace stbpu::exp {

void register_builtin_scenarios() {
  static const bool once = [] {
    // Registration order is the `list` order: the paper's figures, the
    // extension studies, then the simulator-engineering scenarios.
    scenarios::register_analysis();
    scenarios::register_trace();
    scenarios::register_ooo();
    scenarios::register_attacks();
    scenarios::register_tenant();
    return true;
  }();
  (void)once;
}

}  // namespace stbpu::exp
