// City-scale airspace tests (the `scale` ctest tier): hundreds-of-aircraft
// determinism — across repeated runs, intruder-count growth, agent-order
// permutation, and thread counts — plus the event-core accounting that
// proves the adaptive engine does O(near pairs) work, not O(K²).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "acasx/offline_solver.h"
#include "core/validation_campaign.h"
#include "encounter/multi_encounter.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/angles.h"
#include "util/thread_pool.h"

namespace cav {
namespace {

sim::SimConfig city_config(bool adaptive) {
  sim::SimConfig config;
  if (adaptive) {
    config.airspace.interaction_radius_m = 2000.0;  // == corridor lane spacing
  } else {
    config.airspace = sim::AirspaceConfig::legacy();
  }
  return config;
}

sim::SimConfig quiet_city_config(bool adaptive) {
  sim::SimConfig config = city_config(adaptive);
  config.disturbance = sim::DisturbanceConfig::none();
  config.adsb = sim::AdsbConfig::perfect();
  return config;
}

TEST(CityCorridors, ConstructionIsDeterministicAndStructured) {
  const scenarios::Scenario a = scenarios::city_corridors(256, 2016);
  const scenarios::Scenario b = scenarios::city_corridors(256, 2016);
  ASSERT_EQ(a.num_aircraft(), 256U);
  ASSERT_EQ(a.explicit_states.size(), b.explicit_states.size());
  for (std::size_t i = 0; i < a.explicit_states.size(); ++i) {
    EXPECT_EQ(a.explicit_states[i].position_m.x, b.explicit_states[i].position_m.x) << i;
    EXPECT_EQ(a.explicit_states[i].position_m.y, b.explicit_states[i].position_m.y) << i;
    EXPECT_EQ(a.explicit_states[i].ground_speed_mps, b.explicit_states[i].ground_speed_mps) << i;
    // Corridor structure: eastbound at 1000 m, northbound 15 m above —
    // inside the NMAC vertical band, so crossings are live conflicts.
    const auto& s = a.explicit_states[i];
    EXPECT_TRUE(s.position_m.z == 1000.0 || s.position_m.z == 1015.0) << i;
    EXPECT_TRUE(s.bearing_rad == 0.0 || s.bearing_rad == kPi / 2.0) << i;
    EXPECT_GE(s.ground_speed_mps, 30.0);
    EXPECT_LT(s.ground_speed_mps, 45.0);
    EXPECT_EQ(s.vertical_speed_mps, 0.0);
  }
  // A different seed shuffles the along-lane offsets.
  const scenarios::Scenario c = scenarios::city_corridors(256, 7);
  EXPECT_NE(a.explicit_states[0].position_m.x, c.explicit_states[0].position_m.x);
  EXPECT_EQ(a.suggested_time_s(), 120.0);
  EXPECT_EQ(scenarios::make_scenario("city-corridors", 64).num_aircraft(), 64U);
}

TEST(MultiEncounterModelScale, IntruderPrefixStableUnderKGrowth) {
  // The per-intruder-stream contract, checked well past K=8: raising K
  // extends an encounter without disturbing the intruders it already had.
  const encounter::MultiEncounterModel small(8);
  const encounter::MultiEncounterModel large(32);
  for (const std::uint64_t encounter_index : {0ULL, 3ULL}) {
    const auto p8 = small.sample(99, encounter_index);
    const auto p32 = large.sample(99, encounter_index);
    EXPECT_EQ(p8.gs_own_mps, p32.gs_own_mps);
    EXPECT_EQ(p8.vs_own_mps, p32.vs_own_mps);
    ASSERT_EQ(p32.num_intruders(), 32U);
    for (std::size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(p8.intruders[k].t_cpa_s, p32.intruders[k].t_cpa_s) << k;
      EXPECT_EQ(p8.intruders[k].r_cpa_m, p32.intruders[k].r_cpa_m) << k;
      EXPECT_EQ(p8.intruders[k].theta_cpa_rad, p32.intruders[k].theta_cpa_rad) << k;
      EXPECT_EQ(p8.intruders[k].y_cpa_m, p32.intruders[k].y_cpa_m) << k;
      EXPECT_EQ(p8.intruders[k].gs_mps, p32.intruders[k].gs_mps) << k;
      EXPECT_EQ(p8.intruders[k].course_rad, p32.intruders[k].course_rad) << k;
      EXPECT_EQ(p8.intruders[k].vs_mps, p32.intruders[k].vs_mps) << k;
    }
  }
}

TEST(CityScale, AgentOrderPermutationLeavesAggregatesInvariant) {
  // Unequipped quiet-config flight draws nothing, so permuting the agent
  // vector permutes trajectories without changing any of them — every
  // order-independent aggregate must be exactly equal.
  const scenarios::Scenario city = scenarios::city_corridors(64, 5);
  auto run_with_order = [&](bool reversed) {
    std::vector<sim::UavState> states = city.initial_states();
    if (reversed) std::reverse(states.begin(), states.end());
    std::vector<sim::AgentSetup> agents(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) agents[i].initial_state = states[i];
    sim::SimConfig config = quiet_city_config(/*adaptive=*/true);
    config.max_time_s = city.suggested_time_s();
    return sim::run_multi_encounter(config, std::move(agents), 5);
  };
  const sim::SimResult forward = run_with_order(false);
  const sim::SimResult reversed = run_with_order(true);
  EXPECT_EQ(forward.proximity.min_distance_m, reversed.proximity.min_distance_m);
  EXPECT_EQ(forward.proximity.min_horizontal_m, reversed.proximity.min_horizontal_m);
  EXPECT_EQ(forward.proximity.min_vertical_m, reversed.proximity.min_vertical_m);
  EXPECT_EQ(forward.nmac, reversed.nmac);
  EXPECT_EQ(forward.nmac_time_s, reversed.nmac_time_s);
  EXPECT_EQ(forward.pairs.size(), reversed.pairs.size());
  EXPECT_EQ(forward.stats.fine_agent_steps, reversed.stats.fine_agent_steps);
  EXPECT_EQ(forward.stats.coarse_agent_steps, reversed.stats.coarse_agent_steps);
}

TEST(CityScale, AdaptiveEngineDoesNearPairWork) {
  const scenarios::Scenario city = scenarios::city_corridors(64, 2016);
  sim::SimConfig adaptive_config = quiet_city_config(/*adaptive=*/true);
  sim::SimConfig dense_config = quiet_city_config(/*adaptive=*/false);
  const sim::SimResult adaptive =
      scenarios::run_scenario(city, adaptive_config, {}, {}, 2016);
  const sim::SimResult dense = scenarios::run_scenario(city, dense_config, {}, {}, 2016);

  const std::size_t all_pairs = 64 * 63 / 2;
  // Dense mode materializes and updates every pair at the fixed dt.
  EXPECT_EQ(dense.stats.monitored_pairs, all_pairs);
  EXPECT_EQ(dense.stats.peak_active_pairs, all_pairs);
  EXPECT_EQ(dense.stats.coarse_agent_steps, 0U);
  EXPECT_EQ(dense.pairs.size(), all_pairs);
  // The adaptive engine's pair set and stepping follow the local traffic.
  EXPECT_LT(adaptive.stats.monitored_pairs, all_pairs / 4);
  EXPECT_LT(adaptive.stats.peak_active_pairs, all_pairs / 4);
  EXPECT_GT(adaptive.stats.coarse_agent_steps, 0U);
  EXPECT_LT(adaptive.stats.fine_agent_steps, dense.stats.fine_agent_steps);
  EXPECT_LT(adaptive.stats.pair_updates, dense.stats.pair_updates / 4);
  EXPECT_EQ(adaptive.stats.decision_cycles, dense.stats.decision_cycles);
  EXPECT_EQ(adaptive.pairs.size(), adaptive.stats.monitored_pairs);
  // Coordination links follow the same pairs: every ordered pair under the
  // dense index, at most both directions of each ever-near pair otherwise.
  EXPECT_EQ(dense.stats.coordination_links, 64U * 63U);
  EXPECT_GT(adaptive.stats.coordination_links, 0U);
  EXPECT_LE(adaptive.stats.coordination_links, 2 * adaptive.stats.monitored_pairs);
}

TEST(CityScale, CoordinationStateFollowsNearPairsAt16k) {
  // K=16384 for three decision cycles.  Dense K×K link arrays would be
  // ~1.6 GB before the first cycle; the sparse channel holds only links
  // over pairs that were near when someone posted.
  constexpr std::size_t kFleet = 16384;
  const std::vector<sim::UavState> states =
      scenarios::city_corridors(kFleet, 2016).initial_states();
  std::vector<sim::AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) agents[i].initial_state = states[i];
  sim::SimConfig config = quiet_city_config(/*adaptive=*/true);
  config.max_time_s = 3.0;
  const sim::SimResult result = sim::run_multi_encounter(config, std::move(agents), 2016);
  EXPECT_EQ(result.stats.decision_cycles, 3U);
  EXPECT_GT(result.stats.coordination_links, 0U);
  EXPECT_LE(result.stats.coordination_links, 2 * result.stats.monitored_pairs);
  EXPECT_LT(result.stats.monitored_pairs, kFleet * 4);  // a few neighbors each, not K
}

TEST(CityScale, RepeatedRunsAreBitIdenticalUnderFullNoise) {
  // Full default noise at K=128: every surveillance, disturbance, and
  // coordination draw live, twice — one reordered draw breaks this.
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse()));
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);
  const scenarios::Scenario city = scenarios::city_corridors(128, 2016);
  sim::SimConfig config = city_config(/*adaptive=*/true);
  const sim::SimResult a = scenarios::run_scenario(city, config, equipped, equipped, 13);
  const sim::SimResult b = scenarios::run_scenario(city, config, equipped, equipped, 13);
  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  EXPECT_EQ(a.proximity.time_of_min_distance_s, b.proximity.time_of_min_distance_s);
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_EQ(a.nmac_time_s, b.nmac_time_s);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    EXPECT_EQ(a.pairs[p].proximity.min_distance_m, b.pairs[p].proximity.min_distance_m) << p;
  }
  EXPECT_EQ(a.stats.fine_agent_steps, b.stats.fine_agent_steps);
  EXPECT_EQ(a.stats.coarse_agent_steps, b.stats.coarse_agent_steps);
  EXPECT_EQ(a.stats.monitored_pairs, b.stats.monitored_pairs);
  EXPECT_GT(a.wall_time_s, 0.0);
}

TEST(CityScale, CampaignThreadCountInvariantPastK8) {
  // The Monte-Carlo campaign at K=12 intruders: serial and pooled stripes
  // must agree exactly, and the new wall-clock surfacing must be populated.
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse()));
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);
  const encounter::StatisticalEncounterModel model;
  core::MonteCarloConfig config;
  config.encounters = 6;
  config.intruders = 12;
  config.seed = 42;
  const core::ValidationCampaign campaign(model, config, "city", equipped, equipped);
  const core::SystemRates serial = campaign.run().rates;
  ThreadPool pool(3);
  const core::SystemRates pooled = campaign.run(&pool).rates;
  EXPECT_EQ(serial.nmacs, pooled.nmacs);
  EXPECT_EQ(serial.alerts, pooled.alerts);
  EXPECT_EQ(serial.mean_min_separation_m, pooled.mean_min_separation_m);
  EXPECT_GT(serial.sim_wall_s, 0.0);
  EXPECT_GT(serial.mean_encounter_wall_s(), 0.0);
}

}  // namespace
}  // namespace cav
