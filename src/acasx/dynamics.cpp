#include "acasx/dynamics.h"

#include <algorithm>
#include <cmath>

namespace cav::acasx {

std::array<NoiseSample, 3> sigma_samples(double sigma_fps2) {
  const double delta = sigma_fps2 * std::sqrt(2.0);
  return {{{-delta, 0.25}, {0.0, 0.5}, {+delta, 0.25}}};
}

double advisory_rate_response(double dh_fps, Advisory advisory, const DynamicsConfig& dyn) {
  if (advisory == Advisory::kCoc) return dh_fps;
  const double target = target_rate_fpm(advisory) / 60.0;  // fpm -> ft/s
  const double accel =
      is_strengthened(advisory) ? dyn.accel_strength_fps2 : dyn.accel_initial_fps2;
  const double max_delta = accel * dyn.dt_s;
  const double delta = std::clamp(target - dh_fps, -max_delta, max_delta);
  return dh_fps + delta;
}

double integrate_relative_altitude(double h_ft, double dh_own_old, double dh_own_new,
                                   double dh_int_old, double dh_int_new, double dt_s) {
  const double mean_rel_rate = 0.5 * ((dh_int_old + dh_int_new) - (dh_own_old + dh_own_new));
  return h_ft + mean_rel_rate * dt_s;
}

double action_cost(Advisory ra, Advisory a, const CostModel& costs) {
  double c = 0.0;
  if (a == Advisory::kCoc) {
    c -= costs.level_reward;
    if (ra != Advisory::kCoc) c += costs.termination_cost;
  } else {
    c += is_strengthened(a) ? costs.strengthened_maneuver_cost : costs.maneuver_cost;
    if (is_reversal(ra, a)) c += costs.reversal_cost;
    if (is_strengthening(ra, a)) c += costs.strengthen_cost;
  }
  return c;
}

ActionCostTable action_cost_table(const CostModel& costs) {
  ActionCostTable table{};
  for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      table[ra * kNumAdvisories + a] =
          action_cost(static_cast<Advisory>(ra), static_cast<Advisory>(a), costs);
    }
  }
  return table;
}

}  // namespace cav::acasx
