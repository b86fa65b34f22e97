// Selective Velocity Obstacle (SVO) baseline — the algorithm the authors'
// earlier work [7] applied the same GA-search validation to, due to
// Jenie et al. [8]: a cooperative velocity-obstacle avoidance scheme whose
// "selectivity" encodes right-of-way rules, so an aircraft only gives way
// when the rules require it.
//
// Adaptation note (see DESIGN.md): Jenie's SVO resolves conflicts in the
// horizontal plane; our simulator's maneuver channel is vertical (matching
// ACAS XU), so this implementation keeps SVO's conflict-detection geometry
// (first-order CPA / collision-cone test) and selectivity rules, but
// resolves by choosing a vertical rate that restores the protected volume
// at the predicted CPA.  The validation framework treats it as just
// another CollisionAvoidanceSystem.
#pragma once

#include "sim/cas.h"
#include "sim/uav.h"

namespace cav::baselines {

struct SvoConfig {
  double protected_radius_m = 150.0;   ///< horizontal protected zone
  double protected_height_m = 60.0;    ///< vertical protected zone half-height
  double lookahead_s = 60.0;           ///< ignore conflicts further out than this
  double resolution_margin = 1.25;     ///< aim for margin * protected_height
  double max_rate_mps = 5.0;           ///< commanded vertical-rate magnitude cap
  double head_on_half_angle_rad = 0.26;      ///< ~15 deg
  double overtake_course_diff_rad = 0.52;    ///< ~30 deg
  double clear_hysteresis_s = 5.0;
};

/// Decision-only system: like TcasLikeCas it exposes no per-threat cost
/// interface, so ThreatPolicy::kCostFused arbitrates it through the
/// resolver's severity-ordered fallback with the blocking-set veto.
class SvoCas final : public sim::CollisionAvoidanceSystem {
 public:
  explicit SvoCas(const SvoConfig& config = {}, sim::UavPerformance perf = {});

  sim::CasDecision decide(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                          acasx::Sense forbidden_sense) override;
  void reset() override;

  static sim::CasFactory factory(const SvoConfig& config = {}, sim::UavPerformance perf = {});

  /// Conflict geometry, exposed for tests.
  struct Conflict {
    bool predicted = false;    ///< protected volume violated at CPA
    double t_cpa_s = 0.0;
    double miss_horizontal_m = 0.0;
    double miss_vertical_m = 0.0;  ///< signed: intruder above own at CPA
  };
  static Conflict predict_conflict(const acasx::AircraftTrack& own,
                                   const acasx::AircraftTrack& intruder, const SvoConfig& config);

  /// Right-of-way selectivity: must the own-ship give way in this geometry?
  static bool must_give_way(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                            const SvoConfig& config);

 private:
  SvoConfig config_;
  sim::UavPerformance perf_;
  bool avoiding_ = false;
  acasx::Sense active_sense_ = acasx::Sense::kNone;
  double clear_timer_s_ = 0.0;
};

}  // namespace cav::baselines
