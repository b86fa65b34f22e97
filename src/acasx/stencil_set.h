// The stencil dynamic program behind both ACAS tables: the pairwise
// LogicTable (offline_solver.h) and the joint-threat JointLogicTable
// (joint_solver.h) compile their successor stencils, sweep their tau
// layers and run their backward induction through this one header.  What
// differs between them is passed in: the grid rank and successor walk to
// compile_stencils(), the terminal layer and the interior charge (the
// joint table's primary-CPA NMAC) to run_induction() and sweep_layer().
//
// For every (grid point, action) row a StencilSet records the next-layer
// grid vertices that receive probability mass, grouped by noise pair
// exactly as the reference kernel visits them:
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
// A StencilSet owns its arrays: CompiledAcasModel keeps one,
// JointOfflineSolver one per secondary sense class, and the one-shot
// solves free theirs (and hand the pages back, release_freed_heap())
// before they return.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <vector>

#include "acasx/advisory.h"
#include "acasx/config.h"
#include "acasx/dynamics.h"
#include "util/grid.h"
#include "util/pages.h"
#include "util/thread_pool.h"

namespace cav::acasx {

/// What a table solve did, for benches and tests.
struct SolveStats {
  std::size_t states_per_layer = 0;    ///< grid points x advisory memory
  std::size_t layers = 0;              ///< tau layers per slab
  std::size_t slabs = 0;               ///< recursions: 1 pairwise, (delta, sense) joint
  double wall_seconds = 0.0;           ///< total solve wall time
  std::size_t stencil_entries = 0;     ///< (vertex, weight) pairs, all stencil sets
  double stencil_build_seconds = 0.0;  ///< 0 when a compiled model re-solves
};

/// One compiled stencil set, built once per model and read by every sweep.
struct StencilSet {
  std::vector<std::uint64_t> group_offsets;  ///< row r -> group range
  std::vector<double> group_weight;          ///< per-group noise-pair probability
  std::vector<std::uint64_t> entry_offsets;  ///< group -> entry range
  std::vector<std::uint32_t> vertex;         ///< flat grid index of successor vertex
  std::vector<double> weight;                ///< multilinear interpolation weight

  std::size_t num_rows() const { return group_offsets.empty() ? 0 : group_offsets.size() - 1; }
  std::size_t num_entries() const { return vertex.size(); }
};

/// Run fn(begin, end) over [0, n) on `pool`, or inline without one.
template <typename Fn>
void for_ranges(std::size_t n, ThreadPool* pool, const Fn& fn) {
  if (pool != nullptr) {
    pool->parallel_for_ranges(n, fn);
  } else {
    fn(0, n);
  }
}

/// Compile the stencils of every (grid point, action) row of `grid`.
/// walk(point, action, emit) calls emit(pair_weight, successor) once per
/// noise pair of the row, in the reference kernel's order; each successor
/// is scattered onto `grid` with multilinear weights.  A count pass sizes
/// every row, then a fill pass writes each row in place, so nothing is
/// built twice; both passes run in parallel over grid points on `pool`.
template <std::size_t N, typename Walk>
StencilSet compile_stencils(const GridN<N>& grid, const Walk& walk, ThreadPool* pool) {
  const std::size_t num_points = grid.size();
  const std::size_t num_rows = num_points * kNumAdvisories;
  // Calls group(row, pair_weight, vertices, count) for every group of the
  // rows of grid points [begin, end), in row order.
  const auto for_each_group = [&](std::size_t begin, std::size_t end, const auto& group) {
    std::array<GridVertexWeight, std::size_t{1} << N> vertices;
    for (std::size_t g = begin; g < end; ++g) {
      const std::array<double, N> point = grid.point(grid.unflatten(g));
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        walk(point, static_cast<Advisory>(a),
             [&](double pair_weight, const std::array<double, N>& successor) {
               group(g * kNumAdvisories + a, pair_weight, vertices.data(),
                     grid.scatter_into(successor, vertices.data()));
             });
      }
    }
  };

  StencilSet set;
  set.group_offsets.assign(num_rows + 1, 0);
  std::vector<std::uint64_t> row_entry_offsets(num_rows + 1, 0);
  for_ranges(num_points, pool, [&](std::size_t begin, std::size_t end) {
    for_each_group(begin, end,
                   [&](std::size_t r, double, const GridVertexWeight*, std::size_t count) {
                     ++set.group_offsets[r + 1];
                     row_entry_offsets[r + 1] += count;
                   });
  });
  std::partial_sum(set.group_offsets.begin(), set.group_offsets.end(),
                   set.group_offsets.begin());
  std::partial_sum(row_entry_offsets.begin(), row_entry_offsets.end(),
                   row_entry_offsets.begin());

  // Tens of MB on a large grid: prefaulted in one call each, not one page
  // fault per page as resize() zeroes them.
  resize_prefaulted(set.group_weight, set.group_offsets.back());
  resize_prefaulted(set.entry_offsets, set.group_offsets.back() + 1);  // entry_offsets[0] = 0
  resize_prefaulted(set.vertex, row_entry_offsets.back());
  resize_prefaulted(set.weight, row_entry_offsets.back());
  for_ranges(num_points, pool, [&](std::size_t begin, std::size_t end) {
    // Consecutive rows own consecutive groups and entries, so one cursor
    // pair seeded at the range's first row fills the whole range.
    std::uint64_t j = set.group_offsets[begin * kNumAdvisories];
    std::uint64_t k = row_entry_offsets[begin * kNumAdvisories];
    for_each_group(begin, end,
                   [&](std::size_t, double pair_weight, const GridVertexWeight* vertices,
                       std::size_t count) {
                     set.group_weight[j] = pair_weight;
                     for (std::size_t i = 0; i < count; ++i, ++k) {
                       set.vertex[k] = static_cast<std::uint32_t>(vertices[i].flat);
                       set.weight[k] = vertices[i].weight;
                     }
                     set.entry_offsets[++j] = k;
                   });
  });
  return set;
}

/// The costed Bellman minimum of one grid point, given the expected
/// next-layer value of each action:
///   q(ra, a) = [charge +] cost[ra * kNumAdvisories + a] + next_value[a]
///   V(ra)    = min_a q(ra, a)
/// into q_row[ra * kNumAdvisories + a] and v_row[ra], where `cost` is the
/// solve's action_cost_table().
template <bool kCharged>
void bellman_min(const ActionCostTable& cost, double charge,
                 const std::array<double, kNumAdvisories>& next_value, float* q_row,
                 float* v_row) {
  for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      const double c = cost[ra * kNumAdvisories + a];
      const double q = (kCharged ? charge + c : c) + next_value[a];
      q_row[ra * kNumAdvisories + a] = static_cast<float>(q);
      best = std::min(best, q);
    }
    v_row[ra] = static_cast<float>(best);
  }
}

/// The interior charge of a table without one (the pairwise table).
struct NoCharge {};

/// One tau layer of the stencil sweep over grid points [begin, end): the
/// expected next-layer value of each action (the stencil dot product over
/// v_prev, indexed [point][ra]), then the costed Bellman minimum.  `charge`
/// is NoCharge or a callable giving point g's charge at this layer, which
/// the sweep adds in front of the action cost.  Writes
///   q_out[(g - begin) * kNumAdvisories^2 + ra * kNumAdvisories + a]
///   v_out[(g - begin) * kNumAdvisories + ra]
///
/// Consecutive rows own consecutive groups and entries, so the sweep walks
/// them with one group and one entry cursor and reads each offset once.
/// Every group and row adds its terms in the reference kernel's order.
template <typename Charge>
void sweep_layer(const StencilSet& stencils, const ActionCostTable& cost, const Charge& charge,
                 const float* v_prev, std::size_t begin, std::size_t end, float* q_out,
                 float* v_out) {
  constexpr bool kCharged = !std::is_same_v<Charge, NoCharge>;
  const std::uint64_t* const group_offsets = stencils.group_offsets.data();
  const double* const group_weight = stencils.group_weight.data();
  const std::uint64_t* const entry_offsets = stencils.entry_offsets.data();
  const std::uint32_t* const vertex = stencils.vertex.data();
  const double* const weight = stencils.weight.data();
  std::uint64_t j = group_offsets[begin * kNumAdvisories];
  std::uint64_t k = entry_offsets[j];
  for (std::size_t g = begin; g < end; ++g) {
    std::array<double, kNumAdvisories> next_value{};
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      const float* const v = v_prev + a;
      const std::uint64_t row_end = group_offsets[g * kNumAdvisories + a + 1];
      double acc = 0.0;
      for (; j < row_end; ++j) {
        const std::uint64_t group_end = entry_offsets[j + 1];
        double value = 0.0;
        const auto add = [&](std::uint64_t e) {
          value += weight[e] * static_cast<double>(v[vertex[e] * kNumAdvisories]);
        };
        // Four entries per step, in order; most groups hold 4, 8 or 16
        // corners, so the remainder loop seldom runs.
        for (; k + 4 <= group_end; k += 4) {
          add(k);
          add(k + 1);
          add(k + 2);
          add(k + 3);
        }
        for (; k < group_end; ++k) add(k);
        acc += group_weight[j] * value;
      }
      next_value[a] = acc;
    }
    double point_charge = 0.0;
    if constexpr (kCharged) point_charge = charge(g);
    bellman_min<kCharged>(cost, point_charge, next_value,
                          q_out + (g - begin) * kNumAdvisories * kNumAdvisories,
                          v_out + (g - begin) * kNumAdvisories);
  }
}

/// The tau backward induction of one slab `q`, laid out
/// [tau][grid point][ra][action] over `num_points` grid points and
/// tau = 0..tau_max.  terminal(g) is V(0, g) for every advisory memory;
/// Q at tau = 0 holds it for every (ra, action) too, so online
/// interpolation near tau = 0 degrades gracefully.  layer(tau, v_prev,
/// begin, end, q_out, v_out) fills layer tau for grid points [begin, end)
/// the way sweep_layer() does; it runs in parallel over grid points on
/// `pool`, and every point's writes are its own, so the slab does not
/// depend on the schedule.
template <typename Terminal, typename Layer>
void run_induction(std::size_t num_points, std::size_t tau_max, const Terminal& terminal,
                   const Layer& layer, ThreadPool* pool, float* q) {
  constexpr std::size_t kQPerPoint = kNumAdvisories * kNumAdvisories;
  std::vector<float> v_prev(num_points * kNumAdvisories);
  for (std::size_t g = 0; g < num_points; ++g) {
    const float value = terminal(g);
    std::fill_n(v_prev.data() + g * kNumAdvisories, kNumAdvisories, value);
    std::fill_n(q + g * kQPerPoint, kQPerPoint, value);
  }
  std::vector<float> v_cur(num_points * kNumAdvisories);
  for (std::size_t tau = 1; tau <= tau_max; ++tau) {
    float* const q_layer = q + tau * num_points * kQPerPoint;
    for_ranges(num_points, pool, [&](std::size_t begin, std::size_t end) {
      layer(tau, v_prev.data(), begin, end, q_layer + begin * kQPerPoint,
            v_cur.data() + begin * kNumAdvisories);
    });
    v_prev.swap(v_cur);
  }
}

}  // namespace cav::acasx
