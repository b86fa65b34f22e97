// Fault injection — the layer that degrades the world the CAS sees.
//
// Every measured result up to E13 assumed a perfectly equipped fleet,
// uniform i.i.d. coordination loss, and cooperative intruders.  The paper's
// core claim is that offline-optimized policies hide weaknesses that only
// stress-testing exposes (§VIII); this module supplies the stress axes the
// offline optimization bakes away (cf. Squires et al.'s composition of
// safety constraints under limited communications, PAPERS.md):
//
//   * bursty coordination loss — a two-state Gilbert–Elliott model per
//     link (coordination.h); the uniform `message_loss_prob` is its
//     degenerate case and stays bit-identical to the pre-fault engine;
//   * timed comms blackout windows — an aircraft whose datalink is down
//     neither posts nor receives coordination messages;
//   * ADS-B dropout bursts and per-axis bias — surveillance outages that
//     arrive in runs, plus systematic position/velocity error on top of
//     the white noise of sensors.h;
//   * a track-staleness horizon — a coasted track older than the horizon
//     is dropped instead of trusted forever;
//   * non-cooperative and adversarial intruders — a silent (never posts)
//     equipage flag, and a scripted intruder that maneuvers toward the
//     own-ship around CPA instead of avoiding it.
//
// Determinism contract: every fault draw derives from (seed, agent index)
// streams, so degraded runs are bit-reproducible, invariant under thread
// count, and paired across policies.  A FaultProfile with nothing set
// (`FaultProfile::none()`) injects nothing, draws nothing, and leaves the
// engine bit-identical to the seed path.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "sim/cas.h"
#include "sim/sensors.h"
#include "util/rng.h"
#include "util/vec3.h"

namespace cav::sim {

/// Half-open time interval [start_s, end_s).
struct TimeWindow {
  double start_s = 0.0;
  double end_s = 0.0;

  bool contains(double t_s) const { return t_s >= start_s && t_s < end_s; }
};

/// Degradations applied to one aircraft's view of the world.  Carried
/// fleet-wide by SimConfig::fault and overridable per aircraft via
/// AgentSetup::fault (simulation.h).
struct FaultProfile {
  // --- Coordination (maneuver-coordination datalink) -----------------
  /// Windows during which this aircraft's comms are down: it neither
  /// posts its sense nor receives other aircraft's posts.  Surveillance
  /// (ADS-B) is a separate system and keeps working.
  std::vector<TimeWindow> comms_blackouts;
  /// Non-cooperative equipage: the aircraft runs its CAS but never posts
  /// a coordination sense (its receivers see a permanently silent link).
  bool coordination_silent = false;

  // --- Surveillance (ADS-B receive path) -----------------------------
  /// Probability that a successfully received broadcast instead starts a
  /// dropout burst (receiver-side outage): this cycle and a geometric
  /// number of following cycles are lost.  0 disables bursts; the i.i.d.
  /// AdsbConfig::dropout_prob stays available underneath.
  double adsb_dropout_burst_prob = 0.0;
  /// Per-cycle continuation probability of an active dropout burst
  /// (mean burst length = 1 / (1 - p), capped at kMaxBurstCycles).
  double adsb_burst_continue_prob = 0.0;
  /// Systematic per-axis error added to every received position/velocity
  /// on top of the white sensor noise (miscalibrated receiver, GPS bias).
  Vec3 adsb_position_bias_m{};
  Vec3 adsb_velocity_bias_mps{};
  /// A coasted track is dropped (the aircraft un-sees that traffic) once
  /// no broadcast has been received for longer than this.  Infinity — the
  /// default — reproduces the pre-fault engine: coasted tracks are
  /// trusted forever.
  double track_staleness_horizon_s = std::numeric_limits<double>::infinity();

  static constexpr int kMaxBurstCycles = 120;

  /// A profile that injects nothing (the bit-identical seed path).
  static FaultProfile none() { return {}; }

  bool in_comms_blackout(double t_s) const {
    for (const TimeWindow& w : comms_blackouts) {
      if (w.contains(t_s)) return true;
    }
    return false;
  }

  /// True when the ADS-B receive path needs the degraded observation code
  /// (bursts, bias, or a finite staleness horizon).
  bool degrades_surveillance() const {
    return adsb_dropout_burst_prob > 0.0 || adsb_position_bias_m != Vec3{} ||
           adsb_velocity_bias_mps != Vec3{} ||
           track_staleness_horizon_s < std::numeric_limits<double>::infinity();
  }

  bool any() const {
    return degrades_surveillance() || coordination_silent || !comms_blackouts.empty();
  }
};

/// Length (in decision cycles, >= 1) of a dropout burst: 1 plus a
/// geometric number of continuations at `continue_prob`, capped.
int draw_burst_length(RngStream& rng, double continue_prob,
                      int cap = FaultProfile::kMaxBurstCycles);

/// One degraded ADS-B reception of the broadcast (position_m,
/// velocity_mps).  `*burst_cycles_left` is the receiver's per-target burst
/// state (cycles of outage still to serve); nullopt means the broadcast
/// was lost (i.i.d. dropout, or a burst was active or just started).  Noise draws come from `noise_rng` (the same stream and order
/// the undegraded sensor uses); burst start/length draws come from
/// `fault_rng`, so enabling bias alone changes no draw anywhere.
std::optional<acasx::AircraftTrack> observe_degraded(const AdsbSensor& sensor,
                                                     const Vec3& position_m,
                                                     const Vec3& velocity_mps,
                                                     const FaultProfile& fault,
                                                     RngStream& noise_rng, RngStream& fault_rng,
                                                     int* burst_cycles_left);

/// Adversarial intruder behavior: fly the flight plan, then maneuver
/// *toward* the threat's altitude in a timed window around CPA — the
/// intruder-behavior mismatch the offline models never price (a
/// cooperative or at least non-hostile intruder is assumed throughout).
struct ScriptedManeuverConfig {
  double start_s = 30.0;     ///< window start (encounter time)
  double duration_s = 20.0;  ///< window length
  /// Commanded vertical-rate magnitude; the sign is chosen each cycle to
  /// close on the threat's altitude (1500 ft/min default).
  double rate_mps = 7.62;
  double accel_mps2 = 2.4525;   ///< g/4, the standard capture acceleration
  double decision_period_s = 1.0;  ///< must match SimConfig::decision_period_s
};

/// The scripted adversary.  Decision-only and deliberately coordination-
/// silent (it announces no sense); its maneuvers are *not* avoidance, so
/// agents carrying it should set AgentSetup::count_alerts = false to keep
/// alert statistics meaningful.
class ScriptedManeuverCas final : public CollisionAvoidanceSystem {
 public:
  explicit ScriptedManeuverCas(const ScriptedManeuverConfig& config = {}) : config_(config) {}

  CasDecision decide(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                     acasx::Sense forbidden_sense) override;
  void reset() override { cycles_ = 0; }

  static CasFactory factory(const ScriptedManeuverConfig& config = {});

 private:
  ScriptedManeuverConfig config_;
  int cycles_ = 0;  ///< decide() calls since reset (one per decision cycle)
};

}  // namespace cav::sim
