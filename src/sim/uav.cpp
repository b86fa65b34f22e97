#include "sim/uav.h"

#include <algorithm>
#include <cmath>

#include "util/angles.h"

namespace cav::sim {

Vec3 UavState::velocity_mps() const {
  return {ground_speed_mps * std::cos(bearing_rad), ground_speed_mps * std::sin(bearing_rad),
          vertical_speed_mps};
}

void UavAgent::step(double dt_s, const DisturbanceConfig& disturbance, RngStream& rng) {
  if (command_.active) {
    // Commanded vertical-rate capture: bounded-acceleration approach to the
    // target, identical in form to the offline model's response assumption.
    const double max_delta = command_.accel_mps2 * dt_s;
    const double delta =
        std::clamp(command_.target_vs_mps - state_.vertical_speed_mps, -max_delta, max_delta);
    state_.vertical_speed_mps += delta;
  } else {
    // Free flight: the autopilot holds the flight-plan rate (mean
    // reversion); gusts push against it.
    state_.vertical_speed_mps +=
        disturbance.vertical_reversion * (nominal_vs_mps_ - state_.vertical_speed_mps) * dt_s;
  }

  if (disturbance.vertical_sigma > 0.0) {
    state_.vertical_speed_mps +=
        disturbance.vertical_sigma * std::sqrt(dt_s) * rng.gaussian(0.0, 1.0);
  }

  state_.ground_speed_mps +=
      disturbance.horizontal_reversion * (nominal_gs_mps_ - state_.ground_speed_mps) * dt_s;
  if (disturbance.horizontal_sigma > 0.0) {
    state_.ground_speed_mps +=
        disturbance.horizontal_sigma * std::sqrt(dt_s) * rng.gaussian(0.0, 1.0);
  }
  state_.ground_speed_mps = std::max(0.0, state_.ground_speed_mps);

  state_.vertical_speed_mps = std::clamp(state_.vertical_speed_mps, -perf_.max_vertical_speed_mps,
                                         perf_.max_vertical_speed_mps);

  if (turn_command_.active) {
    state_.bearing_rad = wrap_pi(state_.bearing_rad + turn_command_.rate_rad_s * dt_s);
    cache_bearing_trig();
  }

  state_.position_m += velocity_mps() * dt_s;
}

}  // namespace cav::sim
