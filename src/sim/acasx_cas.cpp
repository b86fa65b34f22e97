#include "sim/acasx_cas.h"

#include "util/expect.h"
#include "util/units.h"

namespace cav::sim {

AcasXuCas::AcasXuCas(std::shared_ptr<const acasx::LogicTable> table, AcasXuCasConfig config)
    : logic_(std::move(table), config.online, config.belief), joint_(std::move(config.joint)),
      perf_(config.perf), smoother_(config.tracker) {
  if (config.horizontal != nullptr) {
    horizontal_ = std::make_unique<acasx::HorizontalLogic>(std::move(config.horizontal));
  }
}

void AcasXuCas::reset() {
  logic_.reset();
  if (horizontal_) horizontal_->reset();
  smoother_.reset();
  threat_smoothers_.clear();
}

CasDecision AcasXuCas::to_decision(acasx::Advisory advisory, acasx::TurnAdvisory turn) const {
  CasDecision decision;
  decision.label = acasx::advisory_name(advisory);
  decision.sense = acasx::sense_of(advisory);
  if (advisory != acasx::Advisory::kCoc) {
    decision.maneuver = true;
    decision.target_vs_mps = units::fpm_to_mps(acasx::target_rate_fpm(advisory));
    decision.accel_mps2 = acasx::is_strengthened(advisory) ? perf_.accel_strength_mps2
                                                           : perf_.accel_initial_mps2;
  }
  if (turn != acasx::TurnAdvisory::kStraight) {
    decision.turn = true;
    decision.turn_rate_rad_s =
        acasx::turn_rate_of(turn, horizontal_->table().config().turn_rate_rad_s);
    decision.label += turn == acasx::TurnAdvisory::kTurnLeft ? "+L" : "+R";
  }
  return decision;
}

CasDecision AcasXuCas::decide(const acasx::AircraftTrack& own,
                              const acasx::AircraftTrack& intruder,
                              acasx::Sense forbidden_sense) {
  const acasx::AircraftTrack smoothed = smoother_.update(intruder);
  const acasx::Advisory advisory = logic_.decide(own, smoothed, forbidden_sense);
  const acasx::TurnAdvisory turn =
      horizontal_ ? horizontal_->decide(own, smoothed) : acasx::TurnAdvisory::kStraight;
  return to_decision(advisory, turn);
}

bool AcasXuCas::evaluate_costs(const acasx::AircraftTrack& own, const ThreatObservation& threat,
                               ThreatCosts* out) {
  const acasx::AircraftTrack smoothed =
      threat_smoothers_.smooth(threat.aircraft_id, threat.track, smoother_.config());
  logic_.peek_costs(own, smoothed, &out->active, out->costs);
  return true;
}

bool AcasXuCas::evaluate_joint_costs(const acasx::AircraftTrack& own,
                                     const ThreatObservation& primary,
                                     const ThreatObservation& secondary, ThreatCosts* out) {
  if (joint_ == nullptr) return false;
  // Read the smoothed tracks this cycle's evaluate_costs calls produced —
  // the protocol (sim/cas.h) forbids advancing the smoothers here.
  const acasx::AircraftTrack& a = threat_smoothers_.current_or(primary.aircraft_id,
                                                              primary.track);
  const acasx::AircraftTrack& b = threat_smoothers_.current_or(secondary.aircraft_id,
                                                              secondary.track);
  acasx::joint_action_costs(*joint_, own, a, b, logic_.current_advisory(), logic_.config(),
                            &out->active, out->costs);
  return true;
}

CasDecision AcasXuCas::commit_fused(const acasx::AircraftTrack& own,
                                    const ThreatObservation& primary, acasx::Advisory fused) {
  logic_.set_advisory(fused);
  // The horizontal channel is a position-state pairwise logic: steer it
  // against the most severe threat, reusing the track evaluate_costs
  // already smoothed this cycle.
  const acasx::TurnAdvisory turn =
      horizontal_ ? horizontal_->decide(own, threat_smoothers_.current_or(primary.aircraft_id,
                                                                          primary.track))
                  : acasx::TurnAdvisory::kStraight;
  return to_decision(fused, turn);
}

CasFactory AcasXuCas::factory(std::shared_ptr<const acasx::LogicTable> table,
                              AcasXuCasConfig config) {
  expect(table != nullptr, "logic table provided");
  return [table = std::move(table),
          config = std::move(config)]() -> std::unique_ptr<CollisionAvoidanceSystem> {
    return std::make_unique<AcasXuCas>(table, config);
  };
}

}  // namespace cav::sim
