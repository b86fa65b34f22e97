// Horizontal resolution logic — the "model revision" the GA's findings
// call for (paper Fig. 1: Simulation Evaluation -> manual model revision).
//
// The validation search (§VII) exposes a *structural* blind spot of the
// vertical logic: tau = (range - DMOD)/closure diverges as closure -> 0,
// so slow tail approaches never alert no matter how the MDP parameters
// are tuned.  The fix has to change the model structure (§IV "Model
// structure"), not its parameters: this module optimizes a second MDP over
// the FULL relative horizontal state — intruder position AND relative
// velocity in the own-ship body frame — with turn advisories as actions.
// Because the state carries the actual relative velocity (a 4 m/s
// overtake is represented exactly, where the tau projection saw "no
// conflict"), a slowly converging intruder sits squarely inside the
// costed region and the logic turns away long before the cylinder is
// violated.
//
// Model (own-ship body frame, own heading = +x, CCW positive):
//   state   (dx, dy, rvx, rvy): intruder relative position [m] and
//           relative velocity [m/s]
//   actions straight / turn-left / turn-right at a fixed rate
//   dynamics positions advance by the relative velocity; an own turn
//            rotates the frame and shifts the relative velocity by the
//            own-ship velocity change (computed at a nominal own speed —
//            the single documented approximation); the intruder's
//            acceleration noise enters as sigma samples on the relative
//            velocity
//   cost    conflict disk |d| <= conflict_radius costs 10000 (absorbing,
//            the §III scale); turning costs 100/step; straight earns 50
//   solve   infinite-horizon discounted value iteration (no tau layering
//            exists here — that is the point)
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "acasx/online_logic.h"
#include "util/angles.h"
#include "util/grid.h"
#include "util/thread_pool.h"

namespace cav::acasx {

enum class TurnAdvisory : std::uint8_t {
  kStraight = 0,
  kTurnLeft,   ///< CCW (positive turn rate)
  kTurnRight,  ///< CW (negative turn rate)
};
inline constexpr std::size_t kNumTurnAdvisories = 3;

const char* turn_advisory_name(TurnAdvisory a);

/// Signed turn rate commanded by an advisory, given the configured rate.
double turn_rate_of(TurnAdvisory a, double turn_rate_rad_s);

struct HorizontalConfig {
  UniformAxis x_m{-2400.0, 2400.0, 21};
  UniformAxis y_m{-2400.0, 2400.0, 21};
  UniformAxis rvx_mps{-80.0, 80.0, 17};
  UniformAxis rvy_mps{-80.0, 80.0, 17};

  double own_speed_mps = 35.0;        ///< nominal own speed (turn-response scale)
  double turn_rate_rad_s = 0.1047;    ///< ~6 deg/s UAV turn
  double dt_s = 1.0;
  double accel_noise_mps2 = 1.0;      ///< intruder horizontal accel sigma (per axis)

  double conflict_radius_m = 200.0;   ///< horizontal conflict disk
  double conflict_cost = 10000.0;     ///< the §III scale
  double turn_cost = 100.0;
  double straight_reward = 50.0;

  double discount = 0.95;
  double tolerance = 0.5;             ///< max-norm VI residual
  std::size_t max_iterations = 200;

  /// Small configuration for tests (same code paths, ~10k states).
  static HorizontalConfig coarse();
};

/// The solved horizontal logic table over (dx, dy, rvx, rvy).
class HorizontalTable {
 public:
  explicit HorizontalTable(const HorizontalConfig& config);

  const HorizontalConfig& config() const { return config_; }
  const GridN<4>& grid() const { return grid_; }
  std::size_t num_entries() const { return q_.size(); }

  float at(std::size_t grid_flat, TurnAdvisory a) const {
    return q_[grid_flat * kNumTurnAdvisories + static_cast<std::size_t>(a)];
  }
  float& at(std::size_t grid_flat, TurnAdvisory a) {
    return q_[grid_flat * kNumTurnAdvisories + static_cast<std::size_t>(a)];
  }

  /// Interpolated per-action costs at a continuous body-frame state.  A
  /// field outside its axis, +-inf included, clamps to the table's edge; a
  /// NaN field throws ContractViolation.
  std::array<double, kNumTurnAdvisories> action_costs(double dx_m, double dy_m, double rvx_mps,
                                                      double rvy_mps) const;

  /// True when the position is inside the conflict disk.
  bool in_conflict(double dx_m, double dy_m) const;

  std::vector<float>& raw() { return q_; }
  const std::vector<float>& raw() const { return q_; }

 private:
  HorizontalConfig config_;
  GridN<4> grid_;
  std::vector<float> q_;
};

struct HorizontalSolveStats {
  std::size_t states = 0;
  std::size_t iterations = 0;
  double residual = 0.0;
  double wall_seconds = 0.0;
};

/// Solve the horizontal MDP by discounted value iteration.
HorizontalTable solve_horizontal_table(const HorizontalConfig& config, ThreadPool* pool = nullptr,
                                       HorizontalSolveStats* stats = nullptr);

/// Online horizontal logic: body-frame state from tracks, interpolated
/// lookup, chatter-free advisory selection.
class HorizontalLogic {
 public:
  explicit HorizontalLogic(std::shared_ptr<const HorizontalTable> table);

  TurnAdvisory decide(const AircraftTrack& own, const AircraftTrack& intruder);

  TurnAdvisory current_advisory() const { return current_; }
  void reset() { current_ = TurnAdvisory::kStraight; }
  const std::array<double, kNumTurnAdvisories>& last_costs() const { return last_costs_; }

  const HorizontalTable& table() const { return *table_; }

 private:
  std::shared_ptr<const HorizontalTable> table_;
  TurnAdvisory current_ = TurnAdvisory::kStraight;
  std::array<double, kNumTurnAdvisories> last_costs_{};
};

}  // namespace cav::acasx
