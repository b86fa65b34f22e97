#include "sim/sensors.h"

namespace cav::sim {

std::optional<acasx::AircraftTrack> AdsbSensor::observe(const Vec3& position_m,
                                                        const Vec3& velocity_mps,
                                                        RngStream& rng) const {
  if (config_.dropout_prob > 0.0 && rng.chance(config_.dropout_prob)) return std::nullopt;

  acasx::AircraftTrack track;
  track.position_m = {
      position_m.x + rng.gaussian(0.0, config_.horizontal_pos_sigma_m),
      position_m.y + rng.gaussian(0.0, config_.horizontal_pos_sigma_m),
      position_m.z + rng.gaussian(0.0, config_.vertical_pos_sigma_m),
  };
  track.velocity_mps = {
      velocity_mps.x + rng.gaussian(0.0, config_.horizontal_vel_sigma_mps),
      velocity_mps.y + rng.gaussian(0.0, config_.horizontal_vel_sigma_mps),
      velocity_mps.z + rng.gaussian(0.0, config_.vertical_vel_sigma_mps),
  };
  return track;
}

}  // namespace cav::sim
