// ADS-B surveillance model.
//
// "We assume that in each simulation step the UAVs broadcast their state
// information (position, velocity) via ADS-B.  We explicitly model the
// sensor noise by adding white noise to the received information" (§VI.C).
// Dropout support is our failure-injection extension: a dropped broadcast
// makes the receiver coast on its last track.
//
// A broadcast is the sender's (position, velocity) pair.  The simulation
// forms it once per decision cycle for every aircraft (arrays filled at
// decision time) and every receiver's observation reads those arrays, so
// no receiver recomputes a sender's velocity.
#pragma once

#include <optional>

#include "acasx/online_logic.h"
#include "util/rng.h"
#include "util/vec3.h"

namespace cav::sim {

struct AdsbConfig {
  double horizontal_pos_sigma_m = 15.0;
  double vertical_pos_sigma_m = 7.5;
  double horizontal_vel_sigma_mps = 1.0;
  double vertical_vel_sigma_mps = 0.5;
  double dropout_prob = 0.0;  ///< probability a broadcast is lost entirely

  /// A noise-free configuration (for tests and for isolating other effects).
  static AdsbConfig perfect() { return {0.0, 0.0, 0.0, 0.0, 0.0}; }
};

/// Turn a true broadcast into a (possibly lost, possibly noisy) track as
/// received by the other aircraft.
class AdsbSensor {
 public:
  explicit AdsbSensor(const AdsbConfig& config) : config_(config) {}

  const AdsbConfig& config() const { return config_; }

  /// nullopt models a lost broadcast; otherwise the true position and
  /// velocity plus white noise on every received component.
  std::optional<acasx::AircraftTrack> observe(const Vec3& position_m, const Vec3& velocity_mps,
                                              RngStream& rng) const;

 private:
  AdsbConfig config_;
};

}  // namespace cav::sim
