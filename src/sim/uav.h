// UAV agent: point-mass kinematics with a tracked vertical-rate command.
//
// Mirrors the paper's simulation setup (§VI.C): after the encounter starts
// the UAVs "fly following their initial velocities but also be affected by
// environment disturbance"; when avoidance commands are issued they
// maneuver accordingly (vertical-rate capture with bounded acceleration,
// the same response model the offline MDP assumes).
//
// The agent caches cos/sin of its bearing and recomputes them only when a
// turn changes the bearing, so a step, and every velocity the engine
// broadcasts, costs no trig while the aircraft flies straight (which
// vertical-only ACAS Xu traffic always does).  The cached velocity is
// bit-identical to UavState::velocity_mps().
#pragma once

#include <cmath>
#include <cstdint>

#include "util/rng.h"
#include "util/units.h"
#include "util/vec3.h"

namespace cav::sim {

/// Kinematic state.  Velocity is carried as (ground speed, bearing,
/// vertical speed), the paper's (Gs, theta, Vs) representation (Fig. 4a).
struct UavState {
  Vec3 position_m;          ///< ENU, z = altitude
  double ground_speed_mps = 0.0;
  double bearing_rad = 0.0; ///< Vx = Gs cos(theta), Vy = Gs sin(theta)
  double vertical_speed_mps = 0.0;

  Vec3 velocity_mps() const;
};

/// Performance limits of the airframe.
struct UavPerformance {
  double max_vertical_speed_mps = units::fpm_to_mps(2500.0);
  /// Vertical acceleration used to capture an initial advisory (g/4).
  double accel_initial_mps2 = units::kGravity / 4.0;
  /// Vertical acceleration for strengthened advisories (g/3).
  double accel_strength_mps2 = units::kGravity / 3.0;
};

/// Active vertical maneuver command (from a collision avoidance system).
struct VerticalCommand {
  bool active = false;
  double target_vs_mps = 0.0;
  double accel_mps2 = 0.0;
};

/// Active horizontal maneuver command: a commanded turn rate (CCW +).
struct TurnCommand {
  bool active = false;
  double rate_rad_s = 0.0;
};

/// Environment disturbance: mean-reverting (Ornstein-Uhlenbeck) noise on
/// the vertical rate and ground speed around the flight-plan values.
/// Mean reversion keeps the gust-induced drift bounded (stationary rate
/// sigma = sigma/sqrt(2*reversion)); the offline MDP deliberately assumes
/// the more conservative unbounded white-acceleration model — that
/// model-vs-environment gap is part of what validation must probe.
struct DisturbanceConfig {
  double vertical_sigma = 0.5;      ///< m/s per sqrt(s) rate noise
  double vertical_reversion = 0.3;  ///< 1/s pull toward the nominal rate
  double horizontal_sigma = 0.25;   ///< m/s per sqrt(s) ground-speed noise
  double horizontal_reversion = 0.3;

  /// Disturbance-free environment (tests, geometry checks).
  static DisturbanceConfig none() { return {0.0, 0.0, 0.0, 0.0}; }
};

class UavAgent {
 public:
  UavAgent(int id, const UavState& initial, const UavPerformance& perf = {})
      : id_(id),
        state_(initial),
        perf_(perf),
        nominal_vs_mps_(initial.vertical_speed_mps),
        nominal_gs_mps_(initial.ground_speed_mps) {
    cache_bearing_trig();
  }

  int id() const { return id_; }
  const UavState& state() const { return state_; }

  /// state().velocity_mps(), bit for bit, from the cached bearing trig.
  Vec3 velocity_mps() const {
    return {state_.ground_speed_mps * cos_bearing_, state_.ground_speed_mps * sin_bearing_,
            state_.vertical_speed_mps};
  }
  const UavPerformance& performance() const { return perf_; }
  const VerticalCommand& command() const { return command_; }

  /// Replace the active maneuver command (kept until the next decision).
  void set_command(const VerticalCommand& command) { command_ = command; }

  const TurnCommand& turn_command() const { return turn_command_; }
  void set_turn_command(const TurnCommand& command) { turn_command_ = command; }

  /// Advance dt seconds: track the commanded vertical rate (if any), apply
  /// environment disturbance, clamp to performance limits, integrate.
  void step(double dt_s, const DisturbanceConfig& disturbance, RngStream& rng);

 private:
  void cache_bearing_trig() {
    cos_bearing_ = std::cos(state_.bearing_rad);
    sin_bearing_ = std::sin(state_.bearing_rad);
  }

  int id_;
  UavState state_;
  UavPerformance perf_;
  VerticalCommand command_;
  TurnCommand turn_command_;
  double nominal_vs_mps_;  ///< flight-plan vertical rate (reversion target)
  double nominal_gs_mps_;  ///< flight-plan ground speed (reversion target)
  double cos_bearing_ = 1.0;  ///< cos(state_.bearing_rad)
  double sin_bearing_ = 0.0;  ///< sin(state_.bearing_rad)
};

}  // namespace cav::sim
