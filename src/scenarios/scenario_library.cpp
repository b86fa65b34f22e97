#include "scenarios/scenario_library.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/angles.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::scenarios {
namespace {

encounter::IntruderGeometry conflict_geometry(double t_cpa_s, double gs_mps, double course_rad,
                                              double vs_mps) {
  encounter::IntruderGeometry g;
  g.t_cpa_s = t_cpa_s;
  g.r_cpa_m = 0.0;
  g.theta_cpa_rad = 0.0;
  g.y_cpa_m = 0.0;
  g.gs_mps = gs_mps;
  g.course_rad = wrap_pi(course_rad);
  g.vs_mps = vs_mps;
  return g;
}

}  // namespace

Scenario head_on(std::size_t intruders) {
  expect(intruders >= 1, "at least one intruder");
  Scenario s;
  s.name = "head-on";
  s.params.gs_own_mps = 40.0;
  s.params.vs_own_mps = 0.0;
  // A fan of reciprocal-ish courses (spread 0.35 rad per slot around pi)
  // at staggered CPA times, so every intruder is a genuine nose-on threat
  // to the own-ship but the intruders do not collide with each other.
  for (std::size_t k = 0; k < intruders; ++k) {
    const double offset =
        0.35 * (static_cast<double>(k) - static_cast<double>(intruders - 1) / 2.0);
    s.params.intruders.push_back(
        conflict_geometry(40.0 + 6.0 * static_cast<double>(k), 40.0, kPi + offset, 0.0));
  }
  return s;
}

Scenario crossing(std::size_t intruders) {
  expect(intruders >= 1, "at least one intruder");
  Scenario s;
  s.name = "crossing";
  s.params.gs_own_mps = 35.0;
  s.params.vs_own_mps = 0.0;
  // Perpendicular crossers alternating from the left and the right, each
  // aimed at the own-ship's position at its own staggered CPA time.
  for (std::size_t k = 0; k < intruders; ++k) {
    const double course = (k % 2 == 0) ? kPi / 2.0 : -kPi / 2.0;
    s.params.intruders.push_back(
        conflict_geometry(40.0 + 8.0 * static_cast<double>(k), 35.0, course, 0.0));
  }
  return s;
}

Scenario overtake() {
  Scenario s;
  s.name = "overtake";
  // The challenging family the paper's GA found (Figs. 7-8): descending
  // own-ship overtaken slowly from behind by a climbing intruder — tiny
  // closure rate, so tau-based alerting stays silent.
  s.params = encounter::MultiEncounterParams::from_pairwise(encounter::tail_approach());
  return s;
}

Scenario converging_ring(std::size_t intruders, double t_cpa_s) {
  expect(intruders >= 1, "at least one intruder");
  expect(t_cpa_s > 0.0, "t_cpa_s > 0");
  Scenario s;
  s.name = "converging-ring";
  s.params.gs_own_mps = 35.0;
  s.params.vs_own_mps = 0.0;
  // K intruders evenly spread on a ring of radius gs * T, all converging
  // on the own-ship's CPA position at the same time.  Courses start at
  // pi/K so no intruder flies exactly the own-ship's (or a reciprocal)
  // course, keeping every geometry distinct.
  for (std::size_t k = 0; k < intruders; ++k) {
    const double course =
        kPi / static_cast<double>(intruders) +
        2.0 * kPi * static_cast<double>(k) / static_cast<double>(intruders);
    s.params.intruders.push_back(conflict_geometry(t_cpa_s, 35.0, course, 0.0));
  }
  return s;
}

Scenario high_density_random(std::size_t intruders, std::uint64_t seed) {
  expect(intruders >= 1, "at least one intruder");
  Scenario s;
  s.name = "high-density";
  const encounter::MultiEncounterModel model(intruders);
  s.params = model.sample(seed, /*encounter_index=*/0);
  return s;
}

Scenario city_corridors(std::size_t aircraft, std::uint64_t seed) {
  expect(aircraft >= 2, "at least two aircraft");
  Scenario s;
  s.name = "city-corridors";
  s.horizon_s = 120.0;
  // Manhattan grid of one-way corridors.  Eastbound lanes fly 1000 m,
  // northbound lanes 1015 m — inside the NMAC vertical band, so every
  // lane crossing is a conflict the CAS must price.  Lane count scales
  // with sqrt(K/2) per axis so per-lane headway and crossing density stay
  // roughly constant as the fleet grows; the 2 km lane spacing matches
  // the interaction radius city configs use.
  constexpr double kLaneSpacingM = 2000.0;
  const auto lanes_per_axis = static_cast<std::size_t>(
      std::max(2.0, std::ceil(std::sqrt(static_cast<double>(aircraft) / 2.0))));
  const double extent_m = kLaneSpacingM * static_cast<double>(lanes_per_axis);
  s.explicit_states.reserve(aircraft);
  for (std::size_t k = 0; k < aircraft; ++k) {
    // One stream per aircraft: aircraft k's draws never depend on how many
    // other aircraft exist (lane geometry does scale with the fleet).
    RngStream rng = RngStream::derive(seed, "city", k);
    const bool eastbound = (k % 2 == 0);
    const std::size_t lane = (k / 2) % lanes_per_axis;
    const double cross_m = kLaneSpacingM * static_cast<double>(lane);
    const double along_m = extent_m * rng.uniform(0.0, 1.0);
    sim::UavState state;
    state.ground_speed_mps = rng.uniform(30.0, 45.0);
    state.vertical_speed_mps = 0.0;
    if (eastbound) {
      state.position_m = {along_m, cross_m, 1000.0};
      state.bearing_rad = 0.0;
    } else {
      state.position_m = {cross_m, along_m, 1015.0};
      state.bearing_rad = kPi / 2.0;
    }
    s.explicit_states.push_back(state);
  }
  return s;
}

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "head-on", "crossing", "overtake", "converging-ring", "high-density",
      "city-corridors"};
  return names;
}

Scenario make_scenario(std::string_view name, std::size_t intruders, std::uint64_t seed) {
  if (name == "head-on") return head_on(intruders == 0 ? 1 : intruders);
  if (name == "crossing") return crossing(intruders == 0 ? 1 : intruders);
  if (name == "overtake") {
    // Single-intruder family: a silent fallback would mislabel density
    // sweeps that pass K > 1 for every name.
    expect(intruders <= 1, "overtake is a single-intruder family");
    return overtake();
  }
  if (name == "converging-ring") return converging_ring(intruders == 0 ? 4 : intruders);
  if (name == "high-density") return high_density_random(intruders == 0 ? 8 : intruders, seed);
  if (name == "city-corridors") return city_corridors(intruders == 0 ? 256 : intruders, seed);
  expect(false, "unknown scenario family name");
  return {};  // unreachable
}

sim::SimResult run_scenario(const Scenario& scenario, sim::SimConfig config,
                            const sim::CasFactory& own_cas, const sim::CasFactory& intruder_cas,
                            std::uint64_t seed) {
  return run_scenario(scenario, std::move(config), own_cas, intruder_cas, seed,
                      ScenarioEquipage{});
}

sim::SimResult run_scenario(const Scenario& scenario, sim::SimConfig config,
                            const sim::CasFactory& own_cas, const sim::CasFactory& intruder_cas,
                            std::uint64_t seed, const ScenarioEquipage& equipage) {
  const std::vector<sim::UavState> states = scenario.initial_states();
  std::vector<sim::AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    if (i == 0) {
      if (own_cas) agents[i].cas = own_cas();
      if (equipage.own_fault.has_value()) agents[i].fault = equipage.own_fault;
      continue;
    }
    // Equipage draw from a dedicated (seed, slot) stream: the boundary
    // fractions never draw, and the simulation's own streams are untouched
    // either way, so the fully-equipped default stays bit-identical to the
    // historical path.
    bool equipped = true;
    if (equipage.equipage_fraction <= 0.0) {
      equipped = false;
    } else if (equipage.equipage_fraction < 1.0) {
      RngStream rng = RngStream::derive(seed, "scn-equipage", i - 1);
      equipped = rng.chance(equipage.equipage_fraction);
    }
    if (equipped) {
      if (intruder_cas) agents[i].cas = intruder_cas();
    } else if (equipage.adversarial_unequipped) {
      sim::ScriptedManeuverConfig maneuver;
      // Explicit-state scenarios carry no per-intruder CPA time; bust
      // through mid-horizon instead.
      const double t_cpa_s = i - 1 < scenario.params.intruders.size()
                                 ? scenario.params.intruders[i - 1].t_cpa_s
                                 : scenario.suggested_time_s() / 2.0;
      maneuver.start_s = std::max(0.0, t_cpa_s - 10.0);
      maneuver.duration_s = 20.0;
      maneuver.decision_period_s = config.decision_period_s;
      agents[i].cas = std::make_unique<sim::ScriptedManeuverCas>(maneuver);
      agents[i].count_alerts = false;
    }
    if (equipage.intruder_fault.has_value()) agents[i].fault = equipage.intruder_fault;
  }
  config.max_time_s = scenario.suggested_time_s();
  return sim::run_multi_encounter(config, std::move(agents), seed);
}

namespace {

/// Rebuild a GA-found geometry from its gene vector (to_vector order:
/// 2 own genes then 7 per intruder), exactly as the campaign logged it.
Scenario degraded_geometry(std::string name, const std::vector<double>& genes) {
  Scenario s;
  s.name = std::move(name);
  s.params = encounter::MultiEncounterParams::from_vector(genes);
  return s;
}

}  // namespace

DegradedScenario ga_blackout_pincer() {
  DegradedScenario d;
  // Frozen from search_degraded_multi_scenarios (K=2, kJointTable own-ship,
  // GA seed 606): a slow own-ship pinched between a fast crosser (CPA 33 s)
  // and a slow close-aboard threat (CPA 29 s), with a 21.5 s comms blackout
  // covering both resolution windows on top of heavy link loss, bursts, and
  // ADS-B dropout.  The seed is the smallest at which the degraded run is an
  // own-NMAC under all three threat policies while the fault-free control
  // resolves under the joint table (asserted in test_degraded_fixtures.cpp).
  // That contrast holds at the pinned seed only: over seeds 1-200 the
  // fault-free control is a joint-table own-NMAC on 167/200 seeds under both
  // the old mt19937_64 streams and util/rng.h's (degraded: 181 and 184), so
  // mostly the geometry, not the degradation, defeats the joint table.
  d.scenario = degraded_geometry(
      "ga-blackout-pincer",
      {/*gs_own*/ 22.467, /*vs_own*/ -3.521,
       /*intruder 1 (T R theta Y Gs course Vs)*/
       32.868, 94.365, 2.195, -52.446, 53.142, 1.253, 3.535,
       /*intruder 2*/ 28.968, 23.985, -1.298, 7.610, 19.558, -0.080, 4.836});
  d.coordination.message_loss_prob = 0.57;
  d.coordination.burst_enter_prob = 0.15;
  d.fault.comms_blackouts.push_back({/*start_s=*/14.8, /*end_s=*/14.8 + 21.5});
  d.fault.adsb_dropout_burst_prob = 0.25;
  d.fault.adsb_burst_continue_prob = 0.6;  // DegradedConditions::kBurstContinueProb
  d.seed = 2;
  return d;
}

DegradedScenario ga_burst_stale_overtake() {
  DegradedScenario d;
  // Frozen from the same campaign (GA seed 707): a very slow own-ship
  // overtaken from astern by a slightly-faster co-course threat (CPA 38 s)
  // while a fast crosser converges (CPA 44 s), under the heaviest ADS-B
  // dropout the gene range allows (bursts cover ~half the cycles) plus
  // bursty link loss and a short late blackout.  Of all campaign findings
  // this one's outcome depends most on the faults, but the geometry alone
  // is already dangerous: over seeds 1-200 the joint table own-NMACs on
  // 157 degraded vs 112 fault-free seeds under the old mt19937_64 streams,
  // and 145 vs 129 under util/rng.h's.  The seed is the smallest at which
  // the degraded run is an own-NMAC under all three threat policies while
  // the fault-free control resolves under the joint table.  The 8 s
  // staleness horizon is added on top of the found conditions so the
  // fixture also exercises the coast-limit path — the GA had no horizon
  // gene.
  d.scenario = degraded_geometry(
      "ga-burst-stale-overtake",
      {/*gs_own*/ 16.433, /*vs_own*/ 0.542,
       /*intruder 1 (T R theta Y Gs course Vs)*/
       43.665, 105.301, 1.957, 12.566, 52.752, 1.407, 4.340,
       /*intruder 2*/ 38.176, 52.899, -0.256, 10.460, 23.327, -0.187, -4.673});
  d.coordination.message_loss_prob = 0.33;
  d.coordination.burst_enter_prob = 0.27;
  d.fault.comms_blackouts.push_back({/*start_s=*/30.9, /*end_s=*/30.9 + 7.3});
  d.fault.adsb_dropout_burst_prob = 0.40;
  d.fault.adsb_burst_continue_prob = 0.6;  // DegradedConditions::kBurstContinueProb
  d.fault.track_staleness_horizon_s = 8.0;
  d.seed = 7;
  return d;
}

const std::vector<std::string>& degraded_scenario_names() {
  static const std::vector<std::string> names = {"ga-blackout-pincer",
                                                 "ga-burst-stale-overtake"};
  return names;
}

DegradedScenario make_degraded_scenario(std::string_view name) {
  if (name == "ga-blackout-pincer") return ga_blackout_pincer();
  if (name == "ga-burst-stale-overtake") return ga_burst_stale_overtake();
  expect(false, "unknown degraded scenario name");
  return {};  // unreachable
}

sim::SimResult run_degraded_scenario(const DegradedScenario& degraded, sim::SimConfig config,
                                     const sim::CasFactory& own_cas,
                                     const sim::CasFactory& intruder_cas,
                                     const ScenarioEquipage& equipage) {
  config.coordination = degraded.coordination;
  config.fault = degraded.fault;
  return run_scenario(degraded.scenario, std::move(config), own_cas, intruder_cas,
                      degraded.seed, equipage);
}

}  // namespace cav::scenarios
