// Surveillance track smoothing — the simulator-side analog of ACAS X's
// Surveillance and Tracking Module (STM): raw ADS-B measurements are white-
// noisy (§VI.C), and feeding them straight into the logic makes the
// interpolated Q comparison flicker between advisories cycle to cycle.
// A fixed-gain alpha-beta filter removes most of the velocity noise while
// adding only one surveillance cycle of lag.
//
// The filter assumes a fixed measurement cadence (the decision period,
// 1 Hz by default) — configure `dt_s` if the simulation changes it.
#pragma once

#include <map>

#include "acasx/online_logic.h"

namespace cav::sim {

struct TrackerConfig {
  double dt_s = 1.0;           ///< surveillance cadence the gains assume
  double position_alpha = 0.7; ///< weight of the position measurement
  double velocity_beta = 0.4;  ///< weight of the velocity measurement
  bool enabled = true;

  /// Pass-through (raw measurements), for ablation.
  static TrackerConfig off() {
    TrackerConfig c;
    c.enabled = false;
    return c;
  }
};

/// Fixed-gain track smoother for one target.
class TrackSmoother {
 public:
  explicit TrackSmoother(const TrackerConfig& config = {}) : config_(config) {}

  /// Fold in one measurement; returns the smoothed track.  The first
  /// measurement initializes the filter verbatim.
  acasx::AircraftTrack update(const acasx::AircraftTrack& measurement);

  /// Forget filter state (new encounter / track drop).
  void reset() { initialized_ = false; }

  /// Current smoothed track (only meaningful once initialized); used by
  /// commit-time consumers that must not fold in a second measurement.
  const acasx::AircraftTrack& current() const { return state_; }

  bool initialized() const { return initialized_; }
  const TrackerConfig& config() const { return config_; }

 private:
  TrackerConfig config_;
  bool initialized_ = false;
  acasx::AircraftTrack state_{};
};

/// Per-threat smoother bank for the multi-threat cost protocol
/// (sim/cas.h): one TrackSmoother per threat aircraft, created with the
/// shared config on first sight, so multiple targets never mix filter
/// state.  Held by the table-backed AcasXuCas (sim/acasx_cas.h).
class ThreatSmootherBank {
 public:
  /// Fold one measurement into `aircraft_id`'s smoother (creating it from
  /// `config` when unseen) and return the smoothed track.
  acasx::AircraftTrack smooth(int aircraft_id, const acasx::AircraftTrack& measurement,
                              const TrackerConfig& config) {
    return smoothers_.try_emplace(aircraft_id, config).first->second.update(measurement);
  }

  /// Current smoothed track for `aircraft_id`, or `fallback` when that
  /// aircraft has never been smoothed (commit-time consumers must not
  /// fold in a second measurement).
  const acasx::AircraftTrack& current_or(int aircraft_id,
                                         const acasx::AircraftTrack& fallback) const {
    const auto it = smoothers_.find(aircraft_id);
    return (it != smoothers_.end() && it->second.initialized()) ? it->second.current()
                                                                : fallback;
  }

  void clear() { smoothers_.clear(); }

 private:
  std::map<int, TrackSmoother> smoothers_;
};

}  // namespace cav::sim
