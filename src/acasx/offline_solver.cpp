#include "acasx/offline_solver.h"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "acasx/dynamics.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

/// Expected next-layer value for one (state, action): average over the
/// applicable acceleration-noise hypotheses, each scattered onto the grid.
/// Reference kernel — the stencil path must agree with this bit for bit.
/// `v_next` is indexed [grid point][ra].
double expected_next_value(const AcasXuConfig& config, const GridN<3>& grid,
                           const float* v_next, const std::array<double, 3>& state,
                           Advisory action, const std::array<NoiseSample, 3>& noise) {
  const auto ra_next = static_cast<std::size_t>(action);
  double acc = 0.0;
  const auto add_pair = [&](double pair_weight, const std::array<double, 3>& successor) {
    double value = 0.0;
    for (const auto& vert : grid.scatter(successor)) {
      value += vert.weight * static_cast<double>(v_next[vert.flat * kNumAdvisories + ra_next]);
    }
    acc += pair_weight * value;
  };
  for_each_successor(config.space, config.dynamics, noise, state, action, add_pair);
  return acc;
}

StencilSet compile_pair_stencils(const AcasXuConfig& config, ThreadPool* pool,
                                 double& build_seconds) {
  const auto build_start = std::chrono::steady_clock::now();
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);
  StencilSet stencils = compile_stencils(
      config.space.grid(),
      [&](const std::array<double, 3>& point, Advisory action, const auto& emit) {
        for_each_successor(config.space, config.dynamics, noise, point, action, emit);
      },
      pool);
  build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  return stencils;
}

/// The tau backward induction shared by solve_logic_table and
/// CompiledAcasModel::solve.  `stencils` null selects the reference
/// kernel; `config` carries the cost model actually applied (possibly a
/// revision of the one the stencils were built under — the stencils only
/// depend on space and dynamics).
LogicTable solve_pair_table(const AcasXuConfig& config, const StencilSet* stencils,
                            ThreadPool* pool, SolveStats* stats,
                            std::chrono::steady_clock::time_point start_time) {
  LogicTable table(config);
  const GridN<3>& grid = table.grid();
  const std::size_t num_points = grid.size();
  // Guard against grid/stencil divergence: a stencil set built for a
  // different discretization would silently scatter onto wrong (or
  // out-of-range) vertices.
  expect(stencils == nullptr || stencils->num_rows() == num_points * kNumAdvisories,
         "stencils were built for this grid");

  // Terminal layer (tau = 0): the encounter resolves now; the only thing
  // that matters is whether vertical separation is an NMAC.  The value is
  // independent of rates and advisory memory.
  const auto terminal = [&](std::size_t g) {
    const double h = grid.axis(0).value(grid.unflatten(g)[0]);
    return std::abs(h) <= config.costs.nmac_h_ft ? static_cast<float>(config.costs.nmac_cost)
                                                 : 0.0F;
  };
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);
  const ActionCostTable cost = action_cost_table(config.costs);
  const auto layer = [&](std::size_t, const float* v_prev, std::size_t begin, std::size_t end,
                         float* q_out, float* v_out) {
    if (stencils != nullptr) {
      sweep_layer(*stencils, cost, NoCharge{}, v_prev, begin, end, q_out, v_out);
      return;
    }
    for (std::size_t g = begin; g < end; ++g) {
      const std::array<double, 3> state = grid.point(grid.unflatten(g));
      std::array<double, kNumAdvisories> next_value{};
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        next_value[a] =
            expected_next_value(config, grid, v_prev, state, static_cast<Advisory>(a), noise);
      }
      bellman_min<false>(cost, 0.0, next_value,
                         q_out + (g - begin) * kNumAdvisories * kNumAdvisories,
                         v_out + (g - begin) * kNumAdvisories);
    }
  };
  run_induction(num_points, config.space.tau_max, terminal, layer, pool, table.raw().data());

  if (stats != nullptr) {
    stats->states_per_layer = num_points * kNumAdvisories;
    stats->layers = table.num_tau_layers();
    stats->slabs = 1;
    stats->stencil_entries = stencils != nullptr ? stencils->num_entries() : 0;
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  }
  return table;
}

}  // namespace

LogicTable solve_logic_table(const AcasXuConfig& config, ThreadPool* pool, SolveStats* stats,
                             SolverMode mode) {
  const auto start_time = std::chrono::steady_clock::now();
  double build_seconds = 0.0;
  LogicTable table = [&] {
    if (mode == SolverMode::kReference) {
      return solve_pair_table(config, nullptr, pool, stats, start_time);
    }
    const StencilSet stencils = compile_pair_stencils(config, pool, build_seconds);
    return solve_pair_table(config, &stencils, pool, stats, start_time);
  }();
  release_freed_heap();
  if (stats != nullptr) stats->stencil_build_seconds = build_seconds;
  return table;
}

CompiledAcasModel::CompiledAcasModel(const AcasXuConfig& config, ThreadPool* pool)
    : config_(config) {
  stencils_ = compile_pair_stencils(config, pool, build_seconds_);
}

LogicTable CompiledAcasModel::solve(const CostModel& costs, ThreadPool* pool,
                                    SolveStats* stats) const {
  AcasXuConfig revised = config_;
  revised.costs = costs;
  LogicTable table =
      solve_pair_table(revised, &stencils_, pool, stats, std::chrono::steady_clock::now());
  if (stats != nullptr) stats->stencil_build_seconds = 0.0;  // amortized at construction
  return table;
}

LogicTable CompiledAcasModel::solve(ThreadPool* pool, SolveStats* stats) const {
  return solve(config_.costs, pool, stats);
}

}  // namespace cav::acasx
