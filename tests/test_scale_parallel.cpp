// Parallel logical-process determinism sweep (the `scale` ctest tier).
//
// The LP contract (LpConfig, airspace.h) says any AirspaceConfig::parallel
// setting is bit-identical to the serial engine: same trajectories, same
// per-pair minima, same reports, same RNG draw sequences.  This file
// attacks the contract from the directions the per-scenario equivalence
// tests do not: randomized K/geometry/fault-profile clouds, the composed
// {serial, 1-LP, N-LP} × {pool thread counts} matrix, agent-order
// permutations under LP partitions, and the acceptance-scale city run at
// K=256.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace cav {
namespace {

// Full-strength comparison: one reordered draw, one float reduction in a
// different order, or one pair merged out of canonical order fails it.
void expect_identical(const sim::SimResult& a, const sim::SimResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  EXPECT_EQ(a.proximity.min_horizontal_m, b.proximity.min_horizontal_m);
  EXPECT_EQ(a.proximity.min_vertical_m, b.proximity.min_vertical_m);
  EXPECT_EQ(a.proximity.time_of_min_distance_s, b.proximity.time_of_min_distance_s);
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_EQ(a.nmac_time_s, b.nmac_time_s);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.stats.fine_agent_steps, b.stats.fine_agent_steps);
  EXPECT_EQ(a.stats.coarse_agent_steps, b.stats.coarse_agent_steps);
  EXPECT_EQ(a.stats.fault_events, b.stats.fault_events);
  EXPECT_EQ(a.stats.pair_updates, b.stats.pair_updates);
  EXPECT_EQ(a.stats.monitored_pairs, b.stats.monitored_pairs);
  EXPECT_EQ(a.stats.peak_active_pairs, b.stats.peak_active_pairs);

  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    ASSERT_EQ(a.pairs[p].a, b.pairs[p].a) << p;
    ASSERT_EQ(a.pairs[p].b, b.pairs[p].b) << p;
    EXPECT_EQ(a.pairs[p].proximity.min_distance_m, b.pairs[p].proximity.min_distance_m) << p;
    EXPECT_EQ(a.pairs[p].proximity.time_of_min_distance_s,
              b.pairs[p].proximity.time_of_min_distance_s)
        << p;
    EXPECT_EQ(a.pairs[p].nmac, b.pairs[p].nmac) << p;
    EXPECT_EQ(a.pairs[p].nmac_time_s, b.pairs[p].nmac_time_s) << p;
  }

  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].ever_alerted, b.agents[i].ever_alerted) << i;
    EXPECT_EQ(a.agents[i].first_alert_time_s, b.agents[i].first_alert_time_s) << i;
    EXPECT_EQ(a.agents[i].alert_cycles, b.agents[i].alert_cycles) << i;
    EXPECT_EQ(a.agents[i].reversals, b.agents[i].reversals) << i;
    EXPECT_EQ(a.agents[i].final_advisory, b.agents[i].final_advisory) << i;
  }

  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t s = 0; s < a.trajectory.size(); ++s) {
    ASSERT_EQ(a.trajectory[s].t_s, b.trajectory[s].t_s) << s;
    ASSERT_EQ(a.trajectory[s].position_m.size(), b.trajectory[s].position_m.size());
    for (std::size_t i = 0; i < a.trajectory[s].position_m.size(); ++i) {
      ASSERT_EQ(a.trajectory[s].position_m[i].x, b.trajectory[s].position_m[i].x)
          << "sample " << s << " aircraft " << i;
      ASSERT_EQ(a.trajectory[s].position_m[i].y, b.trajectory[s].position_m[i].y)
          << "sample " << s << " aircraft " << i;
      ASSERT_EQ(a.trajectory[s].position_m[i].z, b.trajectory[s].position_m[i].z)
          << "sample " << s << " aircraft " << i;
      ASSERT_EQ(a.trajectory[s].vs_mps[i], b.trajectory[s].vs_mps[i]) << s;
      ASSERT_EQ(a.trajectory[s].advisory[i], b.trajectory[s].advisory[i]) << s;
    }
  }
}

class ParallelScaleTest : public ::testing::Test {
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
  static sim::CasFactory equipped() { return sim::AcasXuCas::factory(*table_); }
  static std::shared_ptr<const acasx::LogicTable>* table_;
};

std::shared_ptr<const acasx::LogicTable>* ParallelScaleTest::table_ = nullptr;

sim::AirspaceConfig with_lps(sim::AirspaceConfig base, int num_lps, ThreadPool* pool) {
  base.parallel.num_lps = num_lps;
  base.parallel.pool = pool;
  return base;
}

TEST_F(ParallelScaleTest, RandomizedCloudsAreLpAndThreadCountInvariant) {
  // A deterministic fuzz cloud: every case draws its aircraft count,
  // geometry family, fault profile, and equipage from one generator, then
  // the whole {1, 2, 5 LP} × {1-thread, 3-thread pool} matrix must
  // reproduce the serial run bit for bit.
  std::mt19937_64 gen(20260807);
  ThreadPool one_thread(1);
  ThreadPool three_threads(3);

  for (int c = 0; c < 6; ++c) {
    const std::size_t k = 3 + gen() % 10;  // 3..12 aircraft
    const std::uint64_t geo_seed = gen();
    const std::uint64_t sim_seed = gen();
    const int family = static_cast<int>(gen() % 3);
    const scenarios::Scenario scenario =
        family == 0   ? scenarios::converging_ring(k)
        : family == 1 ? scenarios::high_density_random(k, geo_seed)
                      : scenarios::city_corridors(16 + 4 * k, geo_seed);

    sim::SimConfig config;
    config.record_trajectory = true;
    config.max_time_s = 45.0;
    if (family == 2) config.airspace.interaction_radius_m = 2000.0;

    // Fault axes: none / blackout windows / the full degraded stack.
    const int fault = static_cast<int>(gen() % 3);
    if (fault >= 1) {
      const double start = 5.0 + static_cast<double>(gen() % 20);
      config.fault.comms_blackouts.push_back({start, start + 8.0});
      // A second, zero-length window: schedules nothing, changes nothing.
      config.fault.comms_blackouts.push_back({start + 1.0, start + 1.0});
    }
    if (fault == 2) {
      config.fault.adsb_dropout_burst_prob = 0.15;
      config.fault.adsb_burst_continue_prob = 0.5;
      config.fault.adsb_position_bias_m = {4.0, -3.0, 1.5};
      config.fault.track_staleness_horizon_s = 12.0;
      config.coordination.message_loss_prob = 0.1;
    }

    // Equipage: all equipped, or own-only (intruders silently flying
    // their plan — the cas == nullptr skip in the surveillance phase).
    const bool mixed = gen() % 2 == 0;
    const sim::CasFactory own = equipped();
    const sim::CasFactory intruder = mixed ? sim::CasFactory{} : equipped();

    const std::string label = "case " + std::to_string(c) + " family " +
                              std::to_string(family) + " k " + std::to_string(k) + " fault " +
                              std::to_string(fault) + (mixed ? " mixed" : " equipped");
    const sim::SimResult serial =
        scenarios::run_scenario(scenario, config, own, intruder, sim_seed);
    for (const int num_lps : {1, 2, 5}) {
      for (ThreadPool* pool : {&one_thread, &three_threads}) {
        sim::SimConfig parallel_config = config;
        parallel_config.airspace = with_lps(config.airspace, num_lps, pool);
        const sim::SimResult parallel =
            scenarios::run_scenario(scenario, parallel_config, own, intruder, sim_seed);
        expect_identical(serial, parallel,
                         label + " lps " + std::to_string(num_lps) + " threads " +
                             std::to_string(pool->thread_count()));
      }
    }
  }
}

TEST_F(ParallelScaleTest, CityCorridors256IsLpInvariant) {
  // The acceptance-scale run: city_corridors K=256 under full default
  // noise, fully equipped, serial vs 2 and 4 LPs on a 4-thread pool.
  const scenarios::Scenario city = scenarios::city_corridors(256, 2016);
  sim::SimConfig config;
  config.airspace.interaction_radius_m = 2000.0;
  const sim::SimResult serial =
      scenarios::run_scenario(city, config, equipped(), equipped(), 13);
  ThreadPool pool(4);
  for (const int num_lps : {2, 4}) {
    sim::SimConfig parallel_config = config;
    parallel_config.airspace = with_lps(config.airspace, num_lps, &pool);
    const sim::SimResult parallel =
        scenarios::run_scenario(city, parallel_config, equipped(), equipped(), 13);
    expect_identical(serial, parallel, "city-256 lps " + std::to_string(num_lps));
  }
}

TEST_F(ParallelScaleTest, AgentOrderPermutationCommutesWithLpPartition) {
  // Permuting the agent vector permutes the LP ownership of every
  // aircraft (both the index stripes and the grid columns they fall in).
  // In the quiet unequipped configuration each trajectory is independent
  // of order, so order-independent aggregates must survive permutation ×
  // LP partition simultaneously.
  const scenarios::Scenario city = scenarios::city_corridors(64, 5);
  ThreadPool pool(3);
  auto run_with = [&](bool reversed, int num_lps) {
    std::vector<sim::UavState> states = city.initial_states();
    if (reversed) std::reverse(states.begin(), states.end());
    std::vector<sim::AgentSetup> agents(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) agents[i].initial_state = states[i];
    sim::SimConfig config;
    config.airspace.interaction_radius_m = 2000.0;
    config.airspace.parallel.num_lps = num_lps;
    config.airspace.parallel.pool = num_lps > 1 ? &pool : nullptr;
    config.disturbance = sim::DisturbanceConfig::none();
    config.adsb = sim::AdsbConfig::perfect();
    config.max_time_s = city.suggested_time_s();
    return sim::run_multi_encounter(config, std::move(agents), 5);
  };
  const sim::SimResult reference = run_with(false, 1);
  for (const bool reversed : {false, true}) {
    for (const int num_lps : {3, 4}) {
      const sim::SimResult permuted = run_with(reversed, num_lps);
      SCOPED_TRACE((reversed ? "reversed" : "forward") + std::string(" lps ") +
                   std::to_string(num_lps));
      EXPECT_EQ(reference.proximity.min_distance_m, permuted.proximity.min_distance_m);
      EXPECT_EQ(reference.proximity.min_horizontal_m, permuted.proximity.min_horizontal_m);
      EXPECT_EQ(reference.proximity.min_vertical_m, permuted.proximity.min_vertical_m);
      EXPECT_EQ(reference.nmac, permuted.nmac);
      EXPECT_EQ(reference.nmac_time_s, permuted.nmac_time_s);
      EXPECT_EQ(reference.pairs.size(), permuted.pairs.size());
      EXPECT_EQ(reference.stats.fine_agent_steps, permuted.stats.fine_agent_steps);
      EXPECT_EQ(reference.stats.coarse_agent_steps, permuted.stats.coarse_agent_steps);
      EXPECT_EQ(reference.stats.pair_updates, permuted.stats.pair_updates);
    }
  }
}

TEST_F(ParallelScaleTest, SharedPoolAcrossSimulationsStaysDeterministic) {
  // One pool serving many simulations in sequence (the campaign shape):
  // no state may leak between runs through the pool.
  ThreadPool pool(2);
  const scenarios::Scenario ring = scenarios::converging_ring(6);
  sim::SimConfig config;
  config.record_trajectory = true;
  config.airspace = with_lps(config.airspace, 3, &pool);
  const sim::SimResult first = scenarios::run_scenario(ring, config, equipped(), equipped(), 7);
  const sim::SimResult again = scenarios::run_scenario(ring, config, equipped(), equipped(), 7);
  expect_identical(first, again, "shared-pool repeat");
}

}  // namespace
}  // namespace cav
