// The coarse horizontal table, solved once per test binary.  Its solve
// dominates the solver tier and is deterministic, so every suite in the
// binary shares one copy.
#pragma once

#include <memory>

#include "acasx/horizontal.h"
#include "util/thread_pool.h"

namespace cav {

inline std::shared_ptr<const acasx::HorizontalTable> coarse_horizontal_table() {
  static const std::shared_ptr<const acasx::HorizontalTable> table = [] {
    ThreadPool pool;
    return std::make_shared<const acasx::HorizontalTable>(
        acasx::solve_horizontal_table(acasx::HorizontalConfig::coarse(), &pool));
  }();
  return table;
}

}  // namespace cav
