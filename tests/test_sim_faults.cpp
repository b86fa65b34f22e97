// Fault-injection layer tests: profile semantics, the scripted adversary,
// and the engine-level determinism / bit-identity contracts the degraded
// campaign (E14) rests on.
#include "sim/faults.h"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/tcas_like.h"
#include "encounter/encounter.h"
#include "encounter/multi_encounter.h"
#include "sim/simulation.h"

namespace cav::sim {
namespace {

// --- FaultProfile semantics -----------------------------------------

TEST(FaultProfile, NoneInjectsNothing) {
  const FaultProfile none = FaultProfile::none();
  EXPECT_FALSE(none.any());
  EXPECT_FALSE(none.degrades_surveillance());
  EXPECT_FALSE(none.in_comms_blackout(0.0));
}

TEST(FaultProfile, BlackoutWindowIsHalfOpen) {
  FaultProfile fault;
  fault.comms_blackouts.push_back({10.0, 20.0});
  fault.comms_blackouts.push_back({40.0, 45.0});
  EXPECT_FALSE(fault.in_comms_blackout(9.999));
  EXPECT_TRUE(fault.in_comms_blackout(10.0));
  EXPECT_TRUE(fault.in_comms_blackout(19.999));
  EXPECT_FALSE(fault.in_comms_blackout(20.0));
  EXPECT_TRUE(fault.in_comms_blackout(42.0));
  EXPECT_TRUE(fault.any());
  EXPECT_FALSE(fault.degrades_surveillance());  // comms only
}

TEST(FaultProfile, SurveillanceKnobsFlagDegradation) {
  FaultProfile burst;
  burst.adsb_dropout_burst_prob = 0.1;
  EXPECT_TRUE(burst.degrades_surveillance());

  FaultProfile bias;
  bias.adsb_velocity_bias_mps = {0.0, 0.0, 1.0};
  EXPECT_TRUE(bias.degrades_surveillance());

  FaultProfile stale;
  stale.track_staleness_horizon_s = 10.0;
  EXPECT_TRUE(stale.degrades_surveillance());

  FaultProfile silent;
  silent.coordination_silent = true;
  EXPECT_FALSE(silent.degrades_surveillance());
  EXPECT_TRUE(silent.any());
}

// --- ScriptedManeuverCas --------------------------------------------

acasx::AircraftTrack track_at(double z_m, double vs_mps = 0.0) {
  acasx::AircraftTrack t;
  t.position_m = {0.0, 0.0, z_m};
  t.velocity_mps = {30.0, 0.0, vs_mps};
  return t;
}

TEST(ScriptedManeuver, ManeuversTowardThreatOnlyInsideWindow) {
  ScriptedManeuverConfig config;
  config.start_s = 3.0;
  config.duration_s = 2.0;
  config.decision_period_s = 1.0;
  ScriptedManeuverCas cas(config);

  const auto own = track_at(900.0);
  const auto threat = track_at(1000.0);  // above: adversary should climb

  // t = 0, 1, 2: before the window — no maneuver, no announced sense.
  for (int t = 0; t < 3; ++t) {
    const CasDecision d = cas.decide(own, threat, acasx::Sense::kNone);
    EXPECT_FALSE(d.maneuver) << "t=" << t;
    EXPECT_EQ(d.sense, acasx::Sense::kNone);
  }
  // t = 3, 4: inside — climbs toward the threat above.
  for (int t = 3; t < 5; ++t) {
    const CasDecision d = cas.decide(own, threat, acasx::Sense::kNone);
    EXPECT_TRUE(d.maneuver) << "t=" << t;
    EXPECT_GT(d.target_vs_mps, 0.0);
    EXPECT_EQ(d.sense, acasx::Sense::kNone);  // never coordinates
  }
  // t = 5: past the window.
  EXPECT_FALSE(cas.decide(own, threat, acasx::Sense::kNone).maneuver);
}

TEST(ScriptedManeuver, DivesWhenThreatIsBelowAndResetsCleanly) {
  ScriptedManeuverConfig config;
  config.start_s = 0.0;
  config.duration_s = 10.0;
  ScriptedManeuverCas cas(config);
  const CasDecision d = cas.decide(track_at(1100.0), track_at(1000.0), acasx::Sense::kNone);
  ASSERT_TRUE(d.maneuver);
  EXPECT_LT(d.target_vs_mps, 0.0);

  // reset() rewinds the cycle clock: a window starting later is inactive
  // again after reset.
  ScriptedManeuverConfig late;
  late.start_s = 5.0;
  late.duration_s = 1.0;
  ScriptedManeuverCas cas2(late);
  for (int t = 0; t < 6; ++t) cas2.decide(track_at(0.0), track_at(10.0), acasx::Sense::kNone);
  cas2.reset();
  EXPECT_FALSE(cas2.decide(track_at(0.0), track_at(10.0), acasx::Sense::kNone).maneuver);
}

// --- Engine-level contracts -----------------------------------------

/// A two-intruder conflict geometry with CPAs a few seconds apart.
encounter::MultiEncounterParams pincer_params() {
  encounter::MultiEncounterParams params;
  params.gs_own_mps = 35.0;
  params.vs_own_mps = 0.0;
  encounter::IntruderGeometry a;
  a.t_cpa_s = 35.0;
  a.course_rad = 3.0;
  a.gs_mps = 38.0;
  encounter::IntruderGeometry b;
  b.t_cpa_s = 41.0;
  b.course_rad = -1.6;
  b.gs_mps = 33.0;
  params.intruders = {a, b};
  return params;
}

std::vector<AgentSetup> equipped_agents(const encounter::MultiEncounterParams& params) {
  const auto states = encounter::generate_multi_initial_states(params);
  std::vector<AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    agents[i].cas = std::make_unique<baselines::TcasLikeCas>();
  }
  return agents;
}

/// Heavy degradation on every axis at once.
SimConfig degraded_config() {
  SimConfig config;
  config.max_time_s = 60.0;
  config.coordination.message_loss_prob = 0.3;
  config.coordination.burst_enter_prob = 0.25;
  config.coordination.burst_exit_prob = 0.3;
  config.coordination.staleness_ttl_cycles = 5;
  config.fault.comms_blackouts.push_back({20.0, 35.0});
  config.fault.adsb_dropout_burst_prob = 0.2;
  config.fault.adsb_burst_continue_prob = 0.5;
  config.fault.adsb_position_bias_m = {10.0, -5.0, 3.0};
  config.fault.track_staleness_horizon_s = 6.0;
  return config;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_EQ(a.nmac_time_s, b.nmac_time_s);
  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].ever_alerted, b.agents[i].ever_alerted) << "agent " << i;
    EXPECT_EQ(a.agents[i].alert_cycles, b.agents[i].alert_cycles) << "agent " << i;
    EXPECT_EQ(a.agents[i].reversals, b.agents[i].reversals) << "agent " << i;
    EXPECT_EQ(a.agents[i].final_advisory, b.agents[i].final_advisory) << "agent " << i;
  }
}

TEST(DegradedEngine, HeavyFaultRunIsDeterministic) {
  const auto params = pincer_params();
  const SimConfig config = degraded_config();
  const SimResult first = run_multi_encounter(config, equipped_agents(params), 31337);
  const SimResult second = run_multi_encounter(config, equipped_agents(params), 31337);
  expect_identical(first, second);
}

TEST(DegradedEngine, InfiniteTtlMatchesHugeTtlBitForBit) {
  // staleness_ttl_cycles == 0 means infinite; a TTL far beyond the run
  // length must be indistinguishable on a lossy multi-aircraft run.
  const auto params = pincer_params();
  SimConfig infinite = degraded_config();
  infinite.coordination.staleness_ttl_cycles = 0;
  SimConfig huge = degraded_config();
  huge.coordination.staleness_ttl_cycles = 1 << 20;
  const SimResult a = run_multi_encounter(infinite, equipped_agents(params), 4242);
  const SimResult b = run_multi_encounter(huge, equipped_agents(params), 4242);
  expect_identical(a, b);
}

TEST(DegradedEngine, NoneProfileMatchesDefaultConfigBitForBit) {
  // Explicitly attaching the none() profile everywhere (fleet and per
  // agent) must not perturb a single draw relative to the plain config.
  const auto params = pincer_params();
  SimConfig plain;
  plain.max_time_s = 60.0;
  plain.coordination.message_loss_prob = 0.2;
  plain.adsb.dropout_prob = 0.1;

  SimConfig with_profile = plain;
  with_profile.fault = FaultProfile::none();
  auto agents = equipped_agents(params);
  for (auto& agent : agents) agent.fault = FaultProfile::none();

  const SimResult a = run_multi_encounter(plain, equipped_agents(params), 911);
  const SimResult b = run_multi_encounter(with_profile, std::move(agents), 911);
  expect_identical(a, b);
}

TEST(DegradedEngine, DegenerateBurstConfigMatchesUniformLoss) {
  // burst_enter_prob == 0 with every other burst knob armed must stay on
  // the uniform-loss draw sequence (the degenerate-case contract, checked
  // through the full engine rather than the channel in isolation).
  const auto params = pincer_params();
  SimConfig uniform;
  uniform.max_time_s = 60.0;
  uniform.coordination.message_loss_prob = 0.4;

  SimConfig degenerate = uniform;
  degenerate.coordination.burst_enter_prob = 0.0;
  degenerate.coordination.burst_exit_prob = 0.9;
  degenerate.coordination.burst_loss_prob = 0.1;

  const SimResult a = run_multi_encounter(uniform, equipped_agents(params), 555);
  const SimResult b = run_multi_encounter(degenerate, equipped_agents(params), 555);
  expect_identical(a, b);
}

TEST(DegradedEngine, FullBlackoutEquivalentToDisabledCoordination) {
  // A blackout covering the whole run silences every sender before any
  // loss draw, exactly like a disabled channel — bit-identical results.
  const auto params = pincer_params();
  SimConfig disabled;
  disabled.max_time_s = 60.0;
  disabled.coordination.enabled = false;

  SimConfig blackout;
  blackout.max_time_s = 60.0;
  blackout.fault.comms_blackouts.push_back({0.0, 1e9});

  const SimResult a = run_multi_encounter(disabled, equipped_agents(params), 777);
  const SimResult b = run_multi_encounter(blackout, equipped_agents(params), 777);
  expect_identical(a, b);
}

TEST(DegradedEngine, PostRunBlackoutWindowChangesNothing) {
  // A blackout window entirely after max_time_s gates nothing and draws
  // nothing: bit-identical to no blackout at all.
  const auto params = pincer_params();
  SimConfig plain;
  plain.max_time_s = 60.0;
  plain.coordination.message_loss_prob = 0.25;

  SimConfig late = plain;
  late.fault.comms_blackouts.push_back({500.0, 600.0});

  const SimResult a = run_multi_encounter(plain, equipped_agents(params), 888);
  const SimResult b = run_multi_encounter(late, equipped_agents(params), 888);
  expect_identical(a, b);
}

TEST(DegradedEngine, StalenessHorizonDropsCoastedTracks) {
  // With total surveillance outage after the first receptions, an infinite
  // horizon coasts the stale tracks forever (the CAS keeps alerting on
  // them); a short horizon drops them and the own-ship goes blind.  The
  // observable difference: alert cycles vanish under the short horizon.
  auto params = pincer_params();
  SimConfig outage;
  outage.max_time_s = 60.0;
  // A few early receptions get through, then a permanent outage: each
  // received cycle starts a never-ending burst with p = 0.3 (the cap,
  // 120 cycles, outlasts the run).
  outage.fault.adsb_dropout_burst_prob = 0.3;
  outage.fault.adsb_burst_continue_prob = 1.0;

  SimConfig dropped = outage;
  dropped.fault.track_staleness_horizon_s = 3.0;

  const SimResult coasting = run_multi_encounter(outage, equipped_agents(params), 99);
  const SimResult blind = run_multi_encounter(dropped, equipped_agents(params), 99);
  // Coasted forever: the fixture CAS still sees (stale) converging traffic.
  EXPECT_TRUE(coasting.agents[0].ever_alerted);
  // Dropped after 3 s: no track survives long enough to alert on.
  EXPECT_FALSE(blind.agents[0].ever_alerted);
}

TEST(DegradedEngine, ScriptedAdversaryDoesNotCountAlerts) {
  const auto params = pincer_params();
  const auto states = encounter::generate_multi_initial_states(params);
  std::vector<AgentSetup> agents(states.size());
  ScriptedManeuverConfig maneuver;
  maneuver.start_s = 0.0;
  maneuver.duration_s = 60.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    if (i == 0) {
      agents[i].cas = std::make_unique<baselines::TcasLikeCas>();
    } else {
      agents[i].cas = std::make_unique<ScriptedManeuverCas>(maneuver);
      agents[i].count_alerts = false;
    }
  }
  SimConfig config;
  config.max_time_s = 60.0;
  const SimResult r = run_multi_encounter(config, std::move(agents), 606);
  for (std::size_t i = 1; i < r.agents.size(); ++i) {
    EXPECT_FALSE(r.agents[i].ever_alerted) << "agent " << i;
    EXPECT_EQ(r.agents[i].alert_cycles, 0) << "agent " << i;
  }
}

}  // namespace
}  // namespace cav::sim
