// Randomized cross-module property sweeps: invariants that must hold for
// EVERY collision avoidance system across arbitrary encounter geometries,
// and simulation-level invariants across random scenarios.  These are the
// fuzz-style guards for the validation framework itself: the GA will
// wander into weird corners of the space, and nothing there may crash,
// emit NaNs, or violate basic physics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "acasx/offline_solver.h"
#include "baselines/svo.h"
#include "baselines/tcas_like.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "encounter/statistical_model.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"

namespace cav {
namespace {

class PropertySweepTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  struct System {
    const char* label;
    sim::CasFactory factory;
  };
  static std::vector<System> all_systems() {
    return {
        {"ACAS-XU", sim::AcasXuCas::factory(*table_)},
        {"ACAS-XU belief", sim::AcasXuCas::factory(*table_, {.belief = {25.0, 1.6}})},
        {"TCAS-like", baselines::TcasLikeCas::factory()},
        {"SVO", baselines::SvoCas::factory()},
    };
  }

  static std::shared_ptr<const acasx::LogicTable>* table_;
};

std::shared_ptr<const acasx::LogicTable>* PropertySweepTest::table_ = nullptr;

TEST_P(PropertySweepTest, DecisionsAreAlwaysWellFormed) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()));
  const encounter::ParamRanges ranges = encounter::monte_carlo_ranges();

  for (const auto& [label, factory] : all_systems()) {
    auto cas = factory();
    for (int i = 0; i < 40; ++i) {
      const auto params = ranges.sample_uniform(rng);
      const auto init = encounter::generate_initial_states(params);
      const acasx::AircraftTrack own{init.own.position_m, init.own.velocity_mps()};
      const acasx::AircraftTrack intr{init.intruder.position_m, init.intruder.velocity_mps()};
      const auto decision = cas->decide(own, intr, acasx::Sense::kNone);

      ASSERT_TRUE(std::isfinite(decision.target_vs_mps)) << label;
      ASSERT_TRUE(std::isfinite(decision.accel_mps2)) << label;
      ASSERT_FALSE(decision.label.empty()) << label;
      if (decision.maneuver) {
        ASSERT_NE(decision.sense, acasx::Sense::kNone) << label;
        ASSERT_GE(decision.accel_mps2, 0.0) << label;
        // A climb sense must not command a descent and vice versa.
        if (decision.sense == acasx::Sense::kClimb) {
          ASSERT_GE(decision.target_vs_mps, -1e-9) << label;
        } else {
          ASSERT_LE(decision.target_vs_mps, 1e-9) << label;
        }
      } else {
        ASSERT_EQ(decision.sense, acasx::Sense::kNone) << label;
      }
    }
  }
}

TEST_P(PropertySweepTest, CoordinationConstraintIsNeverViolated) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const encounter::ParamRanges ranges;
  for (const auto& [label, factory] : all_systems()) {
    for (const auto forbidden : {acasx::Sense::kClimb, acasx::Sense::kDescend}) {
      auto cas = factory();
      for (int i = 0; i < 25; ++i) {
        const auto params = ranges.sample_uniform(rng);
        const auto init = encounter::generate_initial_states(params);
        const acasx::AircraftTrack own{init.own.position_m, init.own.velocity_mps()};
        const acasx::AircraftTrack intr{init.intruder.position_m, init.intruder.velocity_mps()};
        const auto decision = cas->decide(own, intr, forbidden);
        ASSERT_NE(decision.sense, forbidden)
            << label << " violated the coordination constraint";
      }
    }
  }
}

TEST_P(PropertySweepTest, SimulationInvariants) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const encounter::ParamRanges ranges = encounter::monte_carlo_ranges();
  const auto params = ranges.sample_uniform(rng);
  const auto init = encounter::generate_initial_states(params);

  sim::SimConfig config;
  config.max_time_s = params.t_cpa_s + 30.0;
  config.record_trajectory = true;

  sim::AgentSetup own;
  own.initial_state = init.own;
  own.cas = std::make_unique<sim::AcasXuCas>(*table_);
  sim::AgentSetup intruder;
  intruder.initial_state = init.intruder;
  intruder.cas = std::make_unique<sim::AcasXuCas>(*table_);
  const auto result = sim::run_encounter(config, std::move(own), std::move(intruder),
                                         static_cast<std::uint64_t>(GetParam()));

  ASSERT_TRUE(std::isfinite(result.proximity.min_distance_m));
  ASSERT_GE(result.proximity.min_distance_m, 0.0);
  ASSERT_GE(result.proximity.min_horizontal_m, 0.0);
  ASSERT_GE(result.proximity.min_vertical_m, 0.0);
  // Component minima can never exceed the 3-D minimum's components.
  ASSERT_LE(result.proximity.min_horizontal_m, result.proximity.min_distance_m + 1e-9);
  ASSERT_LE(result.proximity.min_vertical_m, result.proximity.min_distance_m + 1e-9);
  ASSERT_NEAR(result.elapsed_s, config.max_time_s, config.dt_dynamics_s);
  if (result.nmac) {
    ASSERT_GE(result.nmac_time_s, 0.0);
    ASSERT_LE(result.nmac_time_s, result.elapsed_s);
  }

  // Trajectory physics: nobody teleports between decision cycles.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    const auto& prev = result.trajectory[i - 1];
    const auto& cur = result.trajectory[i];
    const double dt = cur.t_s - prev.t_s;
    ASSERT_GT(dt, 0.0);
    // Max speed: generous bound from ground speed cap + vertical cap.
    const double own_step = distance(cur.position_m[0], prev.position_m[0]);
    ASSERT_LT(own_step, (80.0 + 13.0) * dt + 1.0) << "own-ship teleported";
  }
}

TEST_P(PropertySweepTest, FitnessEvaluatorDeterministicUnderThreading) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const auto params = encounter::ParamRanges{}.sample_uniform(rng);

  core::FitnessConfig config;
  config.runs_per_encounter = 12;
  const core::EncounterEvaluator evaluator(config, sim::AcasXuCas::factory(*table_),
                                           sim::AcasXuCas::factory(*table_));
  const auto first = evaluator.evaluate(params, 7);
  const auto second = evaluator.evaluate(params, 7);
  ASSERT_EQ(first.fitness, second.fitness);
  ASSERT_EQ(first.nmac_count, second.nmac_count);
  ASSERT_EQ(first.mean_miss_m, second.mean_miss_m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweepTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace cav
