#include "sim/faults.h"

namespace cav::sim {

int draw_burst_length(RngStream& rng, double continue_prob, int cap) {
  int length = 1;
  while (length < cap && continue_prob > 0.0 && rng.chance(continue_prob)) ++length;
  return length;
}

std::optional<acasx::AircraftTrack> observe_degraded(const AdsbSensor& sensor,
                                                     const Vec3& position_m,
                                                     const Vec3& velocity_mps,
                                                     const FaultProfile& fault,
                                                     RngStream& noise_rng, RngStream& fault_rng,
                                                     int* burst_cycles_left) {
  if (*burst_cycles_left > 0) {
    --*burst_cycles_left;
    return std::nullopt;
  }

  std::optional<acasx::AircraftTrack> received =
      sensor.observe(position_m, velocity_mps, noise_rng);

  // A burst can only start on a cycle that would otherwise have been
  // received: the i.i.d. dropout underneath stays untouched and burst
  // draws come from the dedicated fault stream, so a zero-burst profile
  // consumes exactly the seed path's noise draws.
  if (received.has_value() && fault.adsb_dropout_burst_prob > 0.0 &&
      fault_rng.chance(fault.adsb_dropout_burst_prob)) {
    *burst_cycles_left = draw_burst_length(fault_rng, fault.adsb_burst_continue_prob) - 1;
    return std::nullopt;
  }

  if (received.has_value()) {
    received->position_m += fault.adsb_position_bias_m;
    received->velocity_mps += fault.adsb_velocity_bias_mps;
  }
  return received;
}

CasDecision ScriptedManeuverCas::decide(const acasx::AircraftTrack& own,
                                        const acasx::AircraftTrack& intruder,
                                        acasx::Sense /*forbidden_sense*/) {
  const double t_s = static_cast<double>(cycles_) * config_.decision_period_s;
  ++cycles_;

  CasDecision decision;
  if (t_s < config_.start_s || t_s >= config_.start_s + config_.duration_s) return decision;

  // Close on the threat's altitude: climb when it is above, descend when
  // below (ties descend — arbitrary but deterministic).
  const double sign = intruder.position_m.z > own.position_m.z ? 1.0 : -1.0;
  decision.maneuver = true;
  decision.target_vs_mps = sign * config_.rate_mps;
  decision.accel_mps2 = config_.accel_mps2;
  decision.sense = acasx::Sense::kNone;  // announces nothing (non-cooperative)
  decision.label = "SCRIPTED";
  return decision;
}

CasFactory ScriptedManeuverCas::factory(const ScriptedManeuverConfig& config) {
  return [config] { return std::make_unique<ScriptedManeuverCas>(config); };
}

}  // namespace cav::sim
