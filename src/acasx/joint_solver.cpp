#include "acasx/joint_solver.h"

#include <array>
#include <chrono>
#include <cmath>

#include "acasx/dynamics.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

JointStencilSets compile_joint_stencils(const JointConfig& config, ThreadPool* pool,
                                        double& build_seconds) {
  const auto build_start = std::chrono::steady_clock::now();
  const GridN<4> grid = config.grid();
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);
  JointStencilSets sets;
  for (std::size_t s = 0; s < kNumSecondarySenses; ++s) {
    const double dh2_rep =
        config.secondary.representative_rate_fps(static_cast<SecondarySense>(s));
    // The joint successor: the pairwise walk of (h1, dh_own, dh_int1), plus
    // the secondary's altitude, which responds to the own-ship's rate
    // change with the same trapezoidal integration while the secondary
    // flies the slab's constant representative rate (off-grid h2' clamps
    // at the h2 axis boundary via scatter, like every table boundary).
    const auto walk = [&](const std::array<double, 4>& point, Advisory action,
                          const auto& emit) {
      const auto [h1, dh_own, dh_int1, h2] = point;
      for_each_successor(config.space, config.dynamics, noise, {h1, dh_own, dh_int1}, action,
                         [&](double pair_weight, const std::array<double, 3>& next) {
                           const double h2_new = integrate_relative_altitude(
                               h2, dh_own, next[1], dh2_rep, dh2_rep, config.dynamics.dt_s);
                           emit(pair_weight, std::array<double, 4>{next[0], next[1], next[2],
                                                                    h2_new});
                         });
    };
    sets.per_sense[s] = compile_stencils(grid, walk, pool);
  }
  build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  return sets;
}

/// Solve every (delta bin, sense class) slab's tau recursion into a fresh
/// table, with the cost model `config` carries.
JointLogicTable solve_joint_slabs(const JointConfig& config, const JointStencilSets& stencils,
                                  ThreadPool* pool, SolveStats* stats,
                                  std::chrono::steady_clock::time_point start_time) {
  JointLogicTable table(config);
  const GridN<4>& grid = table.grid();
  const std::size_t num_points = grid.size();
  const std::size_t tau_max = config.space.tau_max;
  for (const StencilSet& set : stencils.per_sense) {
    expect(set.num_rows() == num_points * kNumAdvisories,
           "joint stencils were built for this grid");
  }
  const ActionCostTable cost = action_cost_table(config.costs);
  const auto nmac = [&](double h) {
    return std::abs(h) <= config.costs.nmac_h_ft ? config.costs.nmac_cost : 0.0;
  };
  const auto nmac1 = [&](std::size_t g) {
    return nmac(grid.axis(0).value(grid.unflatten(g)[0]));
  };

  // Each slab is contiguous in the table (slab index slowest).
  const std::size_t slab_floats =
      table.num_tau_layers() * num_points * kNumAdvisories * kNumAdvisories;
  float* const q = table.raw().data();
  for (std::size_t db = 0; db < config.secondary.num_delta_bins; ++db) {
    // The primary's CPA layer inside this slab: delta bin values must land
    // on integer tau layers (SecondaryAbstraction's contract) and inside
    // the horizon, or the primary's conflict would never be charged.
    const double delta_layers_d = config.secondary.delta_value_s(db) / config.dynamics.dt_s;
    const auto delta_layers = static_cast<std::size_t>(std::lround(delta_layers_d));
    expect(std::abs(delta_layers_d - static_cast<double>(delta_layers)) < 1e-9,
           "delta_step_s is a multiple of the dynamics step");
    expect(delta_layers <= tau_max, "every delta bin lies inside the tau horizon");

    // Terminal layer (tau = 0): the SECONDARY's CPA resolves now; the
    // primary's resolves here too when its offset bin is 0.
    const auto terminal = [&](std::size_t g) {
      double value = nmac(grid.axis(3).value(grid.unflatten(g)[3]));
      if (delta_layers == 0) value += nmac1(g);
      return static_cast<float>(value);
    };
    for (std::size_t s = 0; s < kNumSecondarySenses; ++s) {
      const StencilSet& set = stencils.per_sense[s];
      // At the primary's CPA layer every state pays its |h1| NMAC charge on
      // top of the Bellman backup, mirroring how the terminal layer charges
      // the secondary.
      const auto layer = [&](std::size_t tau, const float* v_prev, std::size_t begin,
                             std::size_t end, float* q_out, float* v_out) {
        const bool primary_cpa = (tau == delta_layers);
        const auto charge = [&](std::size_t g) { return primary_cpa ? nmac1(g) : 0.0; };
        sweep_layer(set, cost, charge, v_prev, begin, end, q_out, v_out);
      };
      const std::size_t slab = config.slab_index(db, static_cast<SecondarySense>(s));
      run_induction(num_points, tau_max, terminal, layer, pool, q + slab * slab_floats);
    }
  }
  if (stats != nullptr) {
    stats->states_per_layer = num_points * kNumAdvisories;
    stats->layers = table.num_tau_layers();
    stats->slabs = table.num_slabs();
    stats->stencil_entries = stencils.num_entries();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  }
  return table;
}

}  // namespace

JointOfflineSolver::JointOfflineSolver(const JointConfig& config, ThreadPool* pool)
    : config_(config) {
  stencils_ = compile_joint_stencils(config, pool, build_seconds_);
}

JointLogicTable JointOfflineSolver::solve(const CostModel& costs, ThreadPool* pool,
                                          SolveStats* stats) const {
  JointConfig revised = config_;
  revised.costs = costs;
  JointLogicTable table =
      solve_joint_slabs(revised, stencils_, pool, stats, std::chrono::steady_clock::now());
  if (stats != nullptr) stats->stencil_build_seconds = 0.0;  // amortized at construction
  return table;
}

JointLogicTable JointOfflineSolver::solve(ThreadPool* pool, SolveStats* stats) const {
  return solve(config_.costs, pool, stats);
}

JointLogicTable solve_joint_table(const JointConfig& config, ThreadPool* pool,
                                  SolveStats* stats) {
  const auto start_time = std::chrono::steady_clock::now();
  double build_seconds = 0.0;
  JointLogicTable table = [&] {
    const JointStencilSets stencils = compile_joint_stencils(config, pool, build_seconds);
    return solve_joint_slabs(config, stencils, pool, stats, start_time);
  }();
  release_freed_heap();
  if (stats != nullptr) stats->stencil_build_seconds = build_seconds;
  return table;
}

}  // namespace cav::acasx
