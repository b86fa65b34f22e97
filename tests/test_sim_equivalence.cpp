// The event-core equivalence contract (airspace.h): AirspaceConfig::legacy()
// must reproduce the pre-refactor dense fixed-dt engine bit for bit, and the
// DEFAULT config (grid index, 25 km radius, adaptive timers) must reproduce
// legacy() exactly on every geometry that stays inside the radius — which is
// all of the existing scenario families.  Every comparison here is exact
// double equality: one reordered RNG draw or float reduction fails it.
// The parallel-LP contract layers on top (LpConfig, airspace.h): any
// AirspaceConfig::parallel setting — 1 LP, N LPs, any pool thread count —
// must be bit-identical to the serial engine on the same scenario.
#include <gtest/gtest.h>

#include <memory>

#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/angles.h"
#include "util/thread_pool.h"

namespace cav::sim {
namespace {

UavState state_at(double x, double y, double z, double gs, double bearing, double vs) {
  UavState s;
  s.position_m = {x, y, z};
  s.ground_speed_mps = gs;
  s.bearing_rad = bearing;
  s.vertical_speed_mps = vs;
  return s;
}

void expect_bit_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  EXPECT_EQ(a.proximity.min_horizontal_m, b.proximity.min_horizontal_m);
  EXPECT_EQ(a.proximity.min_vertical_m, b.proximity.min_vertical_m);
  EXPECT_EQ(a.proximity.time_of_min_distance_s, b.proximity.time_of_min_distance_s);
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_EQ(a.nmac_time_s, b.nmac_time_s);
  EXPECT_EQ(a.hard_collision, b.hard_collision);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);

  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    EXPECT_EQ(a.pairs[p].a, b.pairs[p].a) << p;
    EXPECT_EQ(a.pairs[p].b, b.pairs[p].b) << p;
    EXPECT_EQ(a.pairs[p].proximity.min_distance_m, b.pairs[p].proximity.min_distance_m) << p;
    EXPECT_EQ(a.pairs[p].proximity.time_of_min_distance_s,
              b.pairs[p].proximity.time_of_min_distance_s)
        << p;
    EXPECT_EQ(a.pairs[p].nmac, b.pairs[p].nmac) << p;
    EXPECT_EQ(a.pairs[p].nmac_time_s, b.pairs[p].nmac_time_s) << p;
    EXPECT_EQ(a.pairs[p].hard_collision, b.pairs[p].hard_collision) << p;
  }

  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].ever_alerted, b.agents[i].ever_alerted) << i;
    EXPECT_EQ(a.agents[i].first_alert_time_s, b.agents[i].first_alert_time_s) << i;
    EXPECT_EQ(a.agents[i].alert_cycles, b.agents[i].alert_cycles) << i;
    EXPECT_EQ(a.agents[i].reversals, b.agents[i].reversals) << i;
    EXPECT_EQ(a.agents[i].final_advisory, b.agents[i].final_advisory) << i;
    EXPECT_EQ(a.agents[i].resolver.cycles, b.agents[i].resolver.cycles) << i;
    EXPECT_EQ(a.agents[i].resolver.disagreements, b.agents[i].resolver.disagreements) << i;
  }

  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
    EXPECT_EQ(a.trajectory[s].t_s, b.trajectory[s].t_s) << s;
    ASSERT_EQ(a.trajectory[s].position_m.size(), b.trajectory[s].position_m.size());
    for (std::size_t i = 0; i < a.trajectory[s].position_m.size(); ++i) {
      EXPECT_EQ(a.trajectory[s].position_m[i].x, b.trajectory[s].position_m[i].x);
      EXPECT_EQ(a.trajectory[s].position_m[i].y, b.trajectory[s].position_m[i].y);
      EXPECT_EQ(a.trajectory[s].position_m[i].z, b.trajectory[s].position_m[i].z);
    }
  }
}

class EquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(
        std::make_shared<const acasx::LogicTable>(
            acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static CasFactory equipped() { return AcasXuCas::factory(*table_); }
  static std::shared_ptr<const acasx::LogicTable>* table_;
};

std::shared_ptr<const acasx::LogicTable>* EquivalenceTest::table_ = nullptr;

SimResult run_family(const scenarios::Scenario& scenario, const AirspaceConfig& airspace,
                     const CasFactory& cas, std::uint64_t seed,
                     ThreatPolicy policy = ThreatPolicy::kNearest) {
  SimConfig config;  // default noise, dropout, coordination — every draw live
  config.airspace = airspace;
  config.record_trajectory = true;
  config.threat_policy = policy;
  return scenarios::run_scenario(scenario, config, cas, cas, seed);
}

TEST_F(EquivalenceTest, ConvergingRingDefaultMatchesLegacyExactly) {
  for (const std::size_t k : {4UL, 8UL}) {
    const scenarios::Scenario ring = scenarios::converging_ring(k);
    const SimResult dense = run_family(ring, AirspaceConfig::legacy(), equipped(), 5);
    const SimResult adaptive = run_family(ring, AirspaceConfig{}, equipped(), 5);
    expect_bit_identical(dense, adaptive);
    // The default grid mode must also have materialized every pair — the
    // ring never spans the 25 km radius.
    EXPECT_EQ(adaptive.pairs.size(), (k + 1) * k / 2);
    EXPECT_EQ(adaptive.stats.coarse_agent_steps, 0U);
  }
}

TEST_F(EquivalenceTest, HighDensityStatisticalSampleMatchesExactly) {
  const scenarios::Scenario dense_traffic = scenarios::high_density_random(8, 2016);
  const SimResult dense = run_family(dense_traffic, AirspaceConfig::legacy(), equipped(), 9);
  const SimResult adaptive = run_family(dense_traffic, AirspaceConfig{}, equipped(), 9);
  expect_bit_identical(dense, adaptive);
}

TEST_F(EquivalenceTest, CostFusedArbitrationMatchesExactly) {
  const scenarios::Scenario ring = scenarios::converging_ring(6);
  const SimResult dense =
      run_family(ring, AirspaceConfig::legacy(), equipped(), 3, ThreatPolicy::kCostFused);
  const SimResult adaptive =
      run_family(ring, AirspaceConfig{}, equipped(), 3, ThreatPolicy::kCostFused);
  expect_bit_identical(dense, adaptive);
}

TEST_F(EquivalenceTest, DegradedFixturesMatchExactly) {
  // The GA-found degraded fixtures exercise the event-driven blackout
  // toggles, Gilbert–Elliott link bursts, and ADS-B dropout bursts — the
  // draw-heaviest paths in the engine.
  for (const std::string& name : scenarios::degraded_scenario_names()) {
    const scenarios::DegradedScenario fixture = scenarios::make_degraded_scenario(name);
    SimConfig dense_config;
    dense_config.airspace = AirspaceConfig::legacy();
    dense_config.record_trajectory = true;
    SimConfig adaptive_config;
    adaptive_config.record_trajectory = true;
    const SimResult dense =
        scenarios::run_degraded_scenario(fixture, dense_config, equipped(), equipped());
    const SimResult adaptive =
        scenarios::run_degraded_scenario(fixture, adaptive_config, equipped(), equipped());
    expect_bit_identical(dense, adaptive);
  }
}

TEST_F(EquivalenceTest, ForcedModeReproducesGoldenHeadOn) {
  // The same golden numbers test_sim_multi.cpp pins for the default
  // config, re-asserted under the forced dense fixed-dt mode: the legacy
  // switch IS the pre-refactor engine, not merely close to it.
  SimConfig config;
  config.max_time_s = 90.0;
  config.airspace = AirspaceConfig::legacy();
  AgentSetup own;
  own.initial_state = state_at(0, 0, 1000, 40, 0, 0);
  own.cas = std::make_unique<AcasXuCas>(*table_);
  AgentSetup intruder;
  intruder.initial_state = state_at(3200, 0, 1000, 40, kPi, 0);
  intruder.cas = std::make_unique<AcasXuCas>(*table_);
  const auto r = run_encounter(config, std::move(own), std::move(intruder), 11);
  EXPECT_EQ(r.proximity.min_distance_m, 84.851286298638399);
  EXPECT_EQ(r.proximity.min_horizontal_m, 1.1284085920838152);
  EXPECT_EQ(r.proximity.min_vertical_m, 0.0);
  EXPECT_EQ(r.proximity.time_of_min_distance_s, 40.000000000000298);
  EXPECT_FALSE(r.nmac);
  EXPECT_TRUE(r.agents[0].ever_alerted);
  EXPECT_EQ(r.agents[0].first_alert_time_s, 25.000000000000085);
  EXPECT_EQ(r.agents[0].alert_cycles, 3);
  EXPECT_EQ(r.agents[1].alert_cycles, 2);
  EXPECT_EQ(r.elapsed_s, 89.999999999999162);
}

AirspaceConfig with_lps(AirspaceConfig base, int num_lps, ThreadPool* pool) {
  base.parallel.num_lps = num_lps;
  base.parallel.pool = pool;
  return base;
}

TEST_F(EquivalenceTest, ParallelLpsMatchSerialOnEveryFamily) {
  // Every existing K<=8 scenario family, serial vs {1, 2, 4} logical
  // processes on pools of 1 and 3 threads: trajectories, reports, and
  // pair minima must match to the bit (expect_bit_identical compares the
  // recorded multi-trajectory sample by sample).
  ThreadPool one_thread(1);
  ThreadPool three_threads(3);
  struct Family {
    scenarios::Scenario scenario;
    std::uint64_t seed;
    ThreatPolicy policy;
  };
  const Family families[] = {
      {scenarios::converging_ring(4), 5, ThreatPolicy::kNearest},
      {scenarios::converging_ring(8), 5, ThreatPolicy::kNearest},
      {scenarios::high_density_random(8, 2016), 9, ThreatPolicy::kNearest},
      {scenarios::converging_ring(6), 3, ThreatPolicy::kCostFused},
  };
  for (const Family& f : families) {
    const SimResult serial = run_family(f.scenario, AirspaceConfig{}, equipped(), f.seed,
                                        f.policy);
    for (const int num_lps : {1, 2, 4}) {
      for (ThreadPool* pool : {&one_thread, &three_threads}) {
        const SimResult parallel = run_family(
            f.scenario, with_lps(AirspaceConfig{}, num_lps, pool), equipped(), f.seed,
            f.policy);
        expect_bit_identical(serial, parallel);
      }
    }
  }
}

TEST_F(EquivalenceTest, ParallelLpsMatchSerialOnDegradedFixtures) {
  // Both GA-found degraded fixtures — blackout events, Gilbert–Elliott
  // bursts, ADS-B dropout bursts, mixed equipage — under 3 LPs: the
  // draw-heaviest paths survive the LP partition bit for bit.
  ThreadPool pool(2);
  for (const std::string& name : scenarios::degraded_scenario_names()) {
    const scenarios::DegradedScenario fixture = scenarios::make_degraded_scenario(name);
    SimConfig serial_config;
    serial_config.record_trajectory = true;
    SimConfig parallel_config = serial_config;
    parallel_config.airspace = with_lps(parallel_config.airspace, 3, &pool);
    const SimResult serial =
        scenarios::run_degraded_scenario(fixture, serial_config, equipped(), equipped());
    const SimResult parallel =
        scenarios::run_degraded_scenario(fixture, parallel_config, equipped(), equipped());
    expect_bit_identical(serial, parallel);
  }
}

TEST_F(EquivalenceTest, ParallelLegacyModeMatchesDenseSerial) {
  // LpConfig composes with the forced dense fixed-dt mode too: the pair
  // set is dense (no grid to stripe) but the physics and monitor phases
  // still fan out.
  ThreadPool pool(2);
  const scenarios::Scenario ring = scenarios::converging_ring(4);
  const SimResult serial = run_family(ring, AirspaceConfig::legacy(), equipped(), 5);
  const SimResult parallel =
      run_family(ring, with_lps(AirspaceConfig::legacy(), 4, &pool), equipped(), 5);
  expect_bit_identical(serial, parallel);
}

TEST_F(EquivalenceTest, ZeroLengthBlackoutWindowsAreInert) {
  // A window with end <= start never satisfied TimeWindow::contains, so
  // the event-driven engine schedules nothing for it: no events drain,
  // no cycle masks comms, and the run is bit-identical to the fault-free
  // one — serial and under an LP partition alike.
  ThreadPool pool(2);
  const scenarios::Scenario ring = scenarios::converging_ring(4);
  SimConfig clean;
  clean.record_trajectory = true;
  SimConfig degenerate = clean;
  degenerate.fault.comms_blackouts.push_back({20.0, 20.0});
  degenerate.fault.comms_blackouts.push_back({30.0, 25.0});  // inverted
  SimConfig degenerate_parallel = degenerate;
  degenerate_parallel.airspace = with_lps(degenerate_parallel.airspace, 2, &pool);

  const SimResult reference = scenarios::run_scenario(ring, clean, equipped(), equipped(), 5);
  const SimResult degen = scenarios::run_scenario(ring, degenerate, equipped(), equipped(), 5);
  const SimResult degen_lp =
      scenarios::run_scenario(ring, degenerate_parallel, equipped(), equipped(), 5);
  expect_bit_identical(reference, degen);
  expect_bit_identical(reference, degen_lp);
  EXPECT_EQ(degen.stats.fault_events, 0U);
  EXPECT_EQ(degen_lp.stats.fault_events, 0U);
}

TEST_F(EquivalenceTest, RecordEveryNDecimatesWithoutPerturbingTheRun) {
  const scenarios::Scenario ring = scenarios::converging_ring(4);
  SimConfig full;
  full.record_trajectory = true;
  SimConfig decimated = full;
  decimated.record_every_n = 3;
  const SimResult r_full = scenarios::run_scenario(ring, full, equipped(), equipped(), 5);
  const SimResult r_dec = scenarios::run_scenario(ring, decimated, equipped(), equipped(), 5);

  // Decimation only drops samples: the simulation itself is untouched.
  EXPECT_EQ(r_full.proximity.min_distance_m, r_dec.proximity.min_distance_m);
  EXPECT_EQ(r_full.elapsed_s, r_dec.elapsed_s);
  ASSERT_FALSE(r_full.trajectory.empty());
  EXPECT_EQ(r_dec.trajectory.size(), (r_full.trajectory.size() + 2) / 3);
  for (std::size_t s = 0; s < r_dec.trajectory.size(); ++s) {
    EXPECT_EQ(r_dec.trajectory[s].t_s, r_full.trajectory[3 * s].t_s) << s;
  }
}

}  // namespace
}  // namespace cav::sim
