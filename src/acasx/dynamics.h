// Vertical dynamics shared by the offline MDP transition model and (via
// the simulator's UAV agents) the closed-loop evaluation.
//
// Own-ship: while an advisory is active it accelerates deterministically at
// the advisory's acceleration limit toward the commanded rate (a UAV
// autopilot, no pilot delay); once clear of conflict the vertical rate is
// perturbed by white acceleration noise.  Intruder: always noise-driven.
//
// The offline solver approximates the Gaussian acceleration noise with a
// three-point sigma sampling {-sigma*sqrt(2), 0, +sigma*sqrt(2)} weighted
// {1/4, 1/2, 1/4}, which matches the noise mean and variance exactly — the
// "sampling techniques ... used in model construction" whose inaccuracy the
// paper lists among the validation challenges (§IV).
#pragma once

#include <algorithm>
#include <array>

#include "acasx/advisory.h"
#include "acasx/config.h"

namespace cav::acasx {

/// One discrete noise hypothesis: vertical-acceleration offset + weight.
struct NoiseSample {
  double accel_fps2;
  double weight;
};

/// The three-point sigma approximation for a given noise sigma.
std::array<NoiseSample, 3> sigma_samples(double sigma_fps2);

/// Deterministic part of the own-ship's rate response: new vertical rate
/// after dt seconds of complying with `advisory` starting from rate
/// `dh_fps` (ft/s).  For COC the deterministic part is "hold rate" (noise
/// is added separately by the caller).
double advisory_rate_response(double dh_fps, Advisory advisory, const DynamicsConfig& dyn);

/// Relative-altitude update over one step given old/new rates of both
/// aircraft (trapezoidal integration).  h is intruder-above-own, ft.
double integrate_relative_altitude(double h_ft, double dh_own_old, double dh_own_new,
                                   double dh_int_old, double dh_int_new, double dt_s);

/// The pairwise successor walk of state (h, dh_own, dh_int) under
/// `action`: calls emit(pair_weight, {h', dh_own', dh_int'}) once per
/// applicable (own-ship, intruder) noise pair, own-ship noise outermost.
/// The own-ship complies deterministically with an advisory and is
/// noise-driven under COC; new rates clamp to the space's rate axes.  The
/// reference kernel, the stencil compiler and the joint solver's 4-D
/// successor all walk this one function, in this one order.
template <typename Emit>
void for_each_successor(const StateSpaceConfig& space, const DynamicsConfig& dyn,
                        const std::array<NoiseSample, 3>& noise,
                        const std::array<double, 3>& state, Advisory action, const Emit& emit) {
  const auto [h, dh_own, dh_int] = state;
  const double dt = dyn.dt_s;
  const bool own_noisy = (action == Advisory::kCoc);
  const double dh_own_cmd = advisory_rate_response(dh_own, action, dyn);
  for (const NoiseSample& own_n : noise) {
    const double w_own = own_noisy ? own_n.weight : (own_n.accel_fps2 == 0.0 ? 1.0 : 0.0);
    if (w_own == 0.0) continue;
    const double dh_own_new =
        std::clamp(dh_own_cmd + (own_noisy ? own_n.accel_fps2 * dt : 0.0),
                   space.dh_own_fps.lo(), space.dh_own_fps.hi());
    for (const NoiseSample& int_n : noise) {
      const double dh_int_new = std::clamp(dh_int + int_n.accel_fps2 * dt,
                                           space.dh_int_fps.lo(), space.dh_int_fps.hi());
      const double h_new =
          integrate_relative_altitude(h, dh_own, dh_own_new, dh_int, dh_int_new, dt);
      emit(w_own * int_n.weight, std::array<double, 3>{h_new, dh_own_new, dh_int_new});
    }
  }
}

/// Per-step cost of displaying advisory `a` while the previous advisory was
/// `ra` (maneuver/level costs plus strengthen/reversal surcharges).
double action_cost(Advisory ra, Advisory a, const CostModel& costs);

/// action_cost() of every (ra, a) pair, at [ra * kNumAdvisories + a].  The
/// table does not change during a solve, so the Bellman backups read it
/// instead of recomputing each cost per grid point and tau layer.
using ActionCostTable = std::array<double, kNumAdvisories * kNumAdvisories>;
ActionCostTable action_cost_table(const CostModel& costs);

}  // namespace cav::acasx
