// Value Iteration for finite MDPs (cost-minimizing).
//
// Jacobi sweeps: every state's update in a sweep reads the previous
// sweep's values.  By default the model is compiled once into flat CSR
// arrays (CompiledMdp) and the sweeps run on the compiled kernel, in
// parallel across states when a ThreadPool is supplied.  The virtual-
// dispatch path is kept as the serial reference the tests compare the
// compiled and parallel paths against; all of them are bit-identical.
#pragma once

#include <cstddef>

#include "mdp/compiled_mdp.h"
#include "mdp/mdp.h"
#include "util/thread_pool.h"

namespace cav::mdp {

struct ValueIterationConfig {
  double discount = 1.0;          ///< 1.0 is safe for episodic/DAG models
  double tolerance = 1e-9;        ///< max-norm residual for convergence
  std::size_t max_iterations = 10000;
  bool use_compiled = true;       ///< false = legacy virtual-dispatch sweeps
  /// Parallel Jacobi sweeps when non-null.  Compiled path only: the legacy
  /// virtual path (use_compiled = false) is a serial reference and ignores
  /// the pool.
  ThreadPool* pool = nullptr;
};

struct ValueIterationResult {
  Values values;        ///< optimal expected cost per state
  QTable q;             ///< optimal Q table
  Policy policy;        ///< greedy policy
  std::size_t iterations = 0;
  double residual = 0.0;  ///< final max-norm change
  bool converged = false;
};

/// Solve to convergence.  Throws ContractViolation on an empty model.
ValueIterationResult solve_value_iteration(const FiniteMdp& mdp,
                                           const ValueIterationConfig& config = {});

/// Solve an already-compiled model (lets callers amortize compilation
/// across repeated solves, e.g. model-revision sweeps).  `use_compiled`
/// is ignored — this entry point is always compiled.
ValueIterationResult solve_value_iteration(const CompiledMdp& mdp,
                                           const ValueIterationConfig& config = {});

/// Finite-horizon backward induction: returns values for each
/// stage t = 0..horizon, where values[t] is the optimal expected cost with
/// t decision steps remaining.  values[0][s] = terminal_cost for terminal
/// states and 0 otherwise.  Parallelizes each stage over `pool` when given
/// (compiled path only); use_compiled = false runs the legacy serial
/// virtual-dispatch reference, as in the other solvers.
std::vector<Values> solve_finite_horizon(const FiniteMdp& mdp, std::size_t horizon,
                                         double discount = 1.0, ThreadPool* pool = nullptr,
                                         bool use_compiled = true);

/// Finite-horizon backward induction on a pre-compiled model.
std::vector<Values> solve_finite_horizon(const CompiledMdp& mdp, std::size_t horizon,
                                         double discount = 1.0, ThreadPool* pool = nullptr);

}  // namespace cav::mdp
