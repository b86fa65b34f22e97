// Scenario library + multi-intruder encounter model tests: family
// construction, CPA geometry invariants, deterministic per-intruder
// sampling, and the genome round trip the multi GA search relies on.
#include "scenarios/scenario_library.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "encounter/multi_encounter.h"
#include "util/angles.h"
#include "util/expect.h"
#include "util/vec3.h"

namespace cav::scenarios {
namespace {

sim::SimConfig quiet_config() {
  sim::SimConfig config;
  config.disturbance = sim::DisturbanceConfig::none();
  config.adsb = sim::AdsbConfig::perfect();
  return config;
}

TEST(ScenarioLibrary, NamesRoundTripThroughMakeScenario) {
  ASSERT_EQ(scenario_names().size(), 6U);
  for (const std::string& name : scenario_names()) {
    const Scenario s = make_scenario(name);
    EXPECT_EQ(s.name, name);
    EXPECT_EQ(s.initial_states().size(), s.num_aircraft());
    if (s.explicit_states.empty()) {
      EXPECT_GE(s.params.num_intruders(), 1U);
      EXPECT_GT(s.suggested_time_s(), s.params.max_t_cpa_s());
    } else {
      // Explicit-state family (city-corridors): the states are the
      // scenario and the horizon is explicit.
      EXPECT_GE(s.num_aircraft(), 2U);
      EXPECT_GT(s.suggested_time_s(), 0.0);
    }
  }
  EXPECT_THROW(make_scenario("no-such-family"), ContractViolation);
}

TEST(ScenarioLibrary, OvertakeRejectsMultipleIntruders) {
  // A silent fallback to K=1 would mislabel density sweeps.
  EXPECT_THROW(make_scenario("overtake", 3), ContractViolation);
  EXPECT_EQ(make_scenario("overtake", 1).params.num_intruders(), 1U);
}

TEST(ScenarioLibrary, RequestedIntruderCountsAreHonored) {
  EXPECT_EQ(head_on(3).params.num_intruders(), 3U);
  EXPECT_EQ(crossing(5).params.num_intruders(), 5U);
  EXPECT_EQ(converging_ring(6).params.num_intruders(), 6U);
  EXPECT_EQ(high_density_random(9, 1).params.num_intruders(), 9U);
  EXPECT_EQ(overtake().params.num_intruders(), 1U);
  EXPECT_EQ(make_scenario("converging-ring").params.num_intruders(), 4U) << "family default";
}

TEST(ScenarioLibrary, ConvergingRingIsEquidistantAndSimultaneous) {
  const Scenario ring = converging_ring(5, 40.0);
  const auto states = ring.initial_states();
  ASSERT_EQ(states.size(), 6U);
  // Every intruder converges on the own-ship's CPA position at the same
  // time, so all start equidistant from it (gs * T) at distinct bearings.
  const Vec3 own_cpa =
      states[0].position_m + states[0].velocity_mps() * 40.0;
  for (std::size_t k = 1; k < states.size(); ++k) {
    EXPECT_NEAR(distance(states[k].position_m, own_cpa), 35.0 * 40.0, 1e-6) << k;
    const Vec3 at_cpa = states[k].position_m + states[k].velocity_mps() * 40.0;
    EXPECT_NEAR(distance(at_cpa, own_cpa), 0.0, 1e-6) << k;
  }
}

TEST(ScenarioLibrary, UnequippedConvergingRingHitsTheOwnship) {
  const Scenario ring = converging_ring(4);
  const auto result = run_scenario(ring, quiet_config(), {}, {}, 1);
  EXPECT_TRUE(result.own_nmac()) << "all intruders pass through the own-ship's CPA";
  EXPECT_EQ(result.agents.size(), 5U);
}

TEST(ScenarioLibrary, OvertakeMatchesThePaperTailApproach) {
  const Scenario s = overtake();
  const encounter::EncounterParams expected = encounter::tail_approach();
  const encounter::EncounterParams got = s.params.pairwise(0);
  EXPECT_DOUBLE_EQ(got.gs_own_mps, expected.gs_own_mps);
  EXPECT_DOUBLE_EQ(got.vs_own_mps, expected.vs_own_mps);
  EXPECT_DOUBLE_EQ(got.t_cpa_s, expected.t_cpa_s);
  EXPECT_DOUBLE_EQ(got.gs_int_mps, expected.gs_int_mps);
  EXPECT_DOUBLE_EQ(got.vs_int_mps, expected.vs_int_mps);
}

TEST(ScenarioLibrary, HighDensityIsDeterministicInSeed) {
  const Scenario a = high_density_random(6, 42);
  const Scenario b = high_density_random(6, 42);
  const Scenario c = high_density_random(6, 43);
  EXPECT_EQ(a.params.to_vector(), b.params.to_vector());
  EXPECT_NE(a.params.to_vector(), c.params.to_vector());
}

TEST(ScenarioLibrary, DefaultEquipageIsBitIdenticalToPlainOverload) {
  const Scenario ring = converging_ring(3);
  sim::SimConfig config;
  config.coordination.message_loss_prob = 0.2;  // exercise the lossy path too
  const auto plain = run_scenario(ring, config, {}, {}, 7);
  const auto with_equipage = run_scenario(ring, config, {}, {}, 7, ScenarioEquipage{});
  EXPECT_EQ(plain.nmac, with_equipage.nmac);
  EXPECT_DOUBLE_EQ(plain.proximity.min_distance_m, with_equipage.proximity.min_distance_m);
  EXPECT_EQ(plain.agents[0].alert_cycles, with_equipage.agents[0].alert_cycles);
}

TEST(ScenarioLibrary, ZeroEquipageStripsEveryIntruderCas) {
  // With fraction 0 the intruder factory must never be invoked — identical
  // to passing no factory (and to the unequipped baseline result).
  const Scenario ring = converging_ring(4);
  int factory_calls = 0;
  const sim::CasFactory counting = [&factory_calls]() {
    ++factory_calls;
    return std::unique_ptr<sim::CollisionAvoidanceSystem>();
  };
  ScenarioEquipage equipage;
  equipage.equipage_fraction = 0.0;
  const auto stripped = run_scenario(ring, quiet_config(), {}, counting, 1, equipage);
  EXPECT_EQ(factory_calls, 0);
  const auto unequipped = run_scenario(ring, quiet_config(), {}, {}, 1);
  EXPECT_EQ(stripped.own_nmac(), unequipped.own_nmac());
  EXPECT_DOUBLE_EQ(stripped.proximity.min_distance_m, unequipped.proximity.min_distance_m);
}

TEST(ScenarioLibrary, EquipageDrawIsDeterministicInSeed) {
  // Same seed -> same equipage pattern -> identical results.
  const Scenario dense = high_density_random(5, 11);
  ScenarioEquipage equipage;
  equipage.equipage_fraction = 0.5;
  sim::SimConfig config = quiet_config();
  const auto a = run_scenario(dense, config, {}, {}, 21, equipage);
  const auto b = run_scenario(dense, config, {}, {}, 21, equipage);
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_DOUBLE_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
}

TEST(ScenarioLibrary, AdversarialUnequippedGetScriptedCas) {
  // Fraction 0 + adversarial: every intruder flies the scripted maneuver
  // (visible through the advisory labels) and counts no alerts.
  const Scenario ring = converging_ring(3);
  ScenarioEquipage equipage;
  equipage.equipage_fraction = 0.0;
  equipage.adversarial_unequipped = true;
  const auto r = run_scenario(ring, quiet_config(), {}, {}, 5, equipage);
  for (std::size_t i = 1; i < r.agents.size(); ++i) {
    EXPECT_FALSE(r.agents[i].ever_alerted) << "agent " << i;
    EXPECT_EQ(r.agents[i].alert_cycles, 0) << "agent " << i;
  }
}

TEST(DegradedScenarios, NamesRoundTripThroughFactory) {
  ASSERT_EQ(degraded_scenario_names().size(), 2U);
  for (const std::string& name : degraded_scenario_names()) {
    const DegradedScenario d = make_degraded_scenario(name);
    EXPECT_EQ(d.scenario.name, name);
    EXPECT_EQ(d.scenario.params.num_intruders(), 2U);
    EXPECT_TRUE(d.fault.any() || d.coordination.message_loss_prob > 0.0 ||
                d.coordination.burst_model_active())
        << name << " must actually be degraded";
  }
  EXPECT_THROW(make_degraded_scenario("no-such-fixture"), ContractViolation);
}

TEST(DegradedScenarios, RunsAreDeterministic) {
  for (const std::string& name : degraded_scenario_names()) {
    const DegradedScenario d = make_degraded_scenario(name);
    const auto a = run_degraded_scenario(d, sim::SimConfig{}, {}, {});
    const auto b = run_degraded_scenario(d, sim::SimConfig{}, {}, {});
    EXPECT_EQ(a.own_nmac(), b.own_nmac()) << name;
    EXPECT_DOUBLE_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m) << name;
  }
}

TEST(MultiEncounterModel, PerIntruderStreamsAreIndependentOfK) {
  // Intruder k's geometry depends only on (seed, index, k): growing the
  // fleet extends an encounter without disturbing the intruders it had.
  const encounter::MultiEncounterModel small(3);
  const encounter::MultiEncounterModel large(7);
  const auto a = small.sample(9, 4);
  const auto b = large.sample(9, 4);
  ASSERT_EQ(a.num_intruders(), 3U);
  ASSERT_EQ(b.num_intruders(), 7U);
  EXPECT_DOUBLE_EQ(a.gs_own_mps, b.gs_own_mps);
  EXPECT_DOUBLE_EQ(a.vs_own_mps, b.vs_own_mps);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(a.pairwise(k).to_array(), b.pairwise(k).to_array()) << k;
  }
}

TEST(MultiEncounterModel, SamplesRespectTheConfiguredRanges) {
  const encounter::MultiEncounterModel model(4);
  const encounter::ParamRanges& ranges = model.base().config().ranges;
  for (std::uint64_t i = 0; i < 25; ++i) {
    const auto m = model.sample(3, i);
    for (std::size_t k = 0; k < m.num_intruders(); ++k) {
      EXPECT_TRUE(ranges.contains(m.pairwise(k).to_array())) << i << "/" << k;
    }
  }
}

TEST(MultiEncounterParams, VectorRoundTrip) {
  const auto m = encounter::MultiEncounterModel(3).sample(5, 0);
  const std::vector<double> x = m.to_vector();
  ASSERT_EQ(x.size(), encounter::kOwnParams + 3 * encounter::kIntruderParams);
  const auto back = encounter::MultiEncounterParams::from_vector(x);
  EXPECT_EQ(back.to_vector(), x);
  EXPECT_EQ(back.num_intruders(), 3U);
  EXPECT_THROW(encounter::MultiEncounterParams::from_vector({1.0, 2.0, 3.0}),
               ContractViolation);
}

TEST(MultiEncounterParams, PairwiseRoundTrip) {
  const encounter::EncounterParams p = encounter::crossing();
  const auto m = encounter::MultiEncounterParams::from_pairwise(p);
  ASSERT_EQ(m.num_intruders(), 1U);
  EXPECT_EQ(m.pairwise(0).to_array(), p.to_array());
  EXPECT_DOUBLE_EQ(m.max_t_cpa_s(), p.t_cpa_s);
}

TEST(MultiEncounterParams, MultiInitialStatesMatchPairwiseReconstruction) {
  const auto m = encounter::MultiEncounterModel(3).sample(11, 2);
  const auto states = encounter::generate_multi_initial_states(m);
  ASSERT_EQ(states.size(), 4U);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto pair = encounter::generate_initial_states(m.pairwise(k));
    EXPECT_EQ(states[0].position_m, pair.own.position_m);
    EXPECT_EQ(states[k + 1].position_m, pair.intruder.position_m);
    EXPECT_DOUBLE_EQ(states[k + 1].ground_speed_mps, pair.intruder.ground_speed_mps);
  }
}

TEST(MultiEncounterParams, BoundsAreIndexAlignedWithTheVectorEncoding) {
  std::vector<double> lo;
  std::vector<double> hi;
  const encounter::ParamRanges ranges;
  encounter::multi_param_bounds(ranges, 2, &lo, &hi);
  ASSERT_EQ(lo.size(), encounter::kOwnParams + 2 * encounter::kIntruderParams);
  ASSERT_EQ(hi.size(), lo.size());
  // A sampled encounter flattens inside its own bounds.
  const auto m = encounter::MultiEncounterModel(
                     2, encounter::StatisticalModelConfig{.ranges = ranges})
                     .sample(1, 0);
  const auto x = m.to_vector();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x[i], lo[i]) << i;
    EXPECT_LE(x[i], hi[i]) << i;
  }
}

}  // namespace
}  // namespace cav::scenarios
