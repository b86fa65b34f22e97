// A TCAS-II-like legacy collision avoidance baseline.
//
// The paper's motivation (§I-§II) contrasts ACAS X's optimized logic with
// the original TCAS: "very complex pseudocode with many heuristic rules and
// parameter settings whose justification has been lost", and cites reports
// showing the optimized logic "can outperform TCAS in term of safety and
// false alarm rate".  This module provides a faithful *structural* stand-in
// for that comparator: fixed tau thresholds, ZTHR/ALIM altitude tests,
// sense selection by projected separation, strengthening — hand-crafted
// heuristics, no optimization.  (TCAS II v7.1 pseudocode itself is not
// public; see DESIGN.md substitutions.)
#pragma once

#include "sim/cas.h"
#include "sim/uav.h"

namespace cav::baselines {

struct TcasConfig {
  double ta_tau_s = 40.0;       ///< traffic advisory threshold (unused for maneuvers)
  double ra_tau_s = 25.0;       ///< resolution advisory threshold
  double dmod_ft = 500.0;       ///< range floor in the tau computation
  double zthr_ft = 450.0;       ///< vertical threshold for declaring a conflict
  double alim_ft = 300.0;       ///< required separation at CPA; else strengthen
  double initial_rate_fpm = 1500.0;
  double strength_rate_fpm = 2500.0;
  double min_closure_fps = 1.0; ///< same structural blind spot as the tau logic
  double clear_hysteresis_s = 5.0;  ///< keep the RA this long after the conflict clears
};

/// Decision-only system: it exposes no per-threat cost interface, so under
/// ThreatPolicy::kCostFused the resolver arbitrates it via the
/// severity-ordered fallback with the blocking-set veto (multi_threat.h).
class TcasLikeCas final : public sim::CollisionAvoidanceSystem {
 public:
  explicit TcasLikeCas(const TcasConfig& config = {}, sim::UavPerformance perf = {});

  sim::CasDecision decide(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                          acasx::Sense forbidden_sense) override;
  void reset() override;

  static sim::CasFactory factory(const TcasConfig& config = {}, sim::UavPerformance perf = {});

 private:
  TcasConfig config_;
  sim::UavPerformance perf_;
  acasx::Sense active_sense_ = acasx::Sense::kNone;
  bool strengthened_ = false;
  bool ra_active_ = false;
  double clear_timer_s_ = 0.0;  ///< decision cycles (s) since the conflict cleared
};

}  // namespace cav::baselines
