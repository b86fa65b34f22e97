// Precompiled successor stencils — the shared representation behind both
// the pairwise (offline_solver.h) and joint (joint_solver.h) DP solvers.
//
// For every (grid point, action) row we record the next-layer grid
// vertices that receive probability mass, grouped by noise-pair exactly
// as the reference kernel visits them:
//
//   row (g, a) -> groups [group_offsets[r], group_offsets[r+1])
//   group j    -> pair weight group_weight[j] and interpolation entries
//                 [entry_offsets[j], entry_offsets[j+1])  (vertex, weight)
//
// Keeping the two-level accumulation (inner interpolation sum, then the
// pair-weighted outer sum) preserves the reference kernel's floating-
// point evaluation order, so the stencil sweep is BIT-IDENTICAL to the
// per-layer recomputation — only ~100x cheaper.
//
// A StencilSet owns its arrays: CompiledAcasModel keeps one, the joint
// solver one per secondary sense class, and nothing copies them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cav::acasx {

/// One compiled stencil set, built once per model and read by every sweep.
struct StencilSet {
  std::vector<std::uint64_t> group_offsets;  ///< row r -> group range
  std::vector<double> group_weight;          ///< per-group noise-pair probability
  std::vector<std::uint64_t> entry_offsets;  ///< group -> entry range
  std::vector<std::uint32_t> vertex;         ///< flat grid index of successor vertex
  std::vector<double> weight;                ///< multilinear interpolation weight

  std::size_t num_entries() const { return vertex.size(); }
};

}  // namespace cav::acasx
