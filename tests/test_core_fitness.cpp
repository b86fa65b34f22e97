// Fitness-function tests: the paper's 10000/(1+d) shape, bounds,
// determinism, and monotonicity in encounter severity.
#include "core/fitness.h"

#include <gtest/gtest.h>

#include <memory>

#include "acasx/offline_solver.h"
#include "sim/acasx_cas.h"
#include "util/expect.h"

namespace cav::core {
namespace {

class FitnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static FitnessConfig fast_config(std::size_t runs = 20) {
    FitnessConfig config;
    config.runs_per_encounter = runs;
    return config;
  }
  static sim::CasFactory acas() { return sim::AcasXuCas::factory(*table_); }
  static sim::CasFactory none() { return {}; }
  static std::shared_ptr<const acasx::LogicTable>* table_;
};

std::shared_ptr<const acasx::LogicTable>* FitnessTest::table_ = nullptr;

TEST_F(FitnessTest, FitnessBoundedByGainMax) {
  const EncounterEvaluator evaluator(fast_config(), acas(), acas());
  for (const auto& params :
       {encounter::head_on(), encounter::tail_approach(), encounter::crossing()}) {
    const auto eval = evaluator.evaluate(params, 1);
    EXPECT_GT(eval.fitness, 0.0);
    EXPECT_LE(eval.fitness, 10000.0);
  }
}

TEST_F(FitnessTest, CollisionRunsScoreMaximumGain) {
  // Unequipped head-on without disturbance: every run is an NMAC, so
  // d_k = 0 and the fitness is exactly gain_max.  (With the default
  // vertical gust a run has a few-percent chance of passing more than
  // 100 ft apart, which would break the premise for some seeds.)
  FitnessConfig config = fast_config();
  config.sim.disturbance = sim::DisturbanceConfig::none();
  const EncounterEvaluator evaluator(config, none(), none());
  const auto eval = evaluator.evaluate(encounter::head_on(), 1);
  EXPECT_EQ(eval.nmac_count, eval.runs);
  EXPECT_DOUBLE_EQ(eval.fitness, 10000.0);
  EXPECT_DOUBLE_EQ(eval.mean_miss_m, 0.0);
}

TEST_F(FitnessTest, EquippedHeadOnScoresLow) {
  const EncounterEvaluator evaluator(fast_config(), acas(), acas());
  const auto eval = evaluator.evaluate(encounter::head_on(), 1);
  EXPECT_EQ(eval.nmac_count, 0U);
  EXPECT_LT(eval.fitness, 500.0);
  EXPECT_GT(eval.alert_fraction_own, 0.9);
}

TEST_F(FitnessTest, TailApproachScoresHigh) {
  const EncounterEvaluator evaluator(fast_config(), acas(), acas());
  const auto tail = evaluator.evaluate(encounter::tail_approach(), 1);
  const auto head = evaluator.evaluate(encounter::head_on(), 1);
  EXPECT_GT(tail.fitness, 10.0 * head.fitness)
      << "the challenging geometry must dominate the resolved one";
}

TEST_F(FitnessTest, FitnessDecreasesWithMissDistance) {
  // Unequipped encounters with growing encoded CPA miss: fitness must fall.
  const EncounterEvaluator evaluator(fast_config(), none(), none());
  double previous = 1e18;
  for (const double r : {0.0, 40.0, 100.0, 140.0}) {
    encounter::EncounterParams params = encounter::crossing();
    params.r_cpa_m = r;
    params.y_cpa_m = 45.0;  // keep vertical offset so small r isn't NMAC-saturated
    const auto eval = evaluator.evaluate(params, 2);
    EXPECT_LT(eval.fitness, previous) << "r = " << r;
    previous = eval.fitness;
  }
}

TEST_F(FitnessTest, DeterministicPerStreamId) {
  const EncounterEvaluator evaluator(fast_config(), acas(), acas());
  const auto a = evaluator.evaluate(encounter::head_on(), 42);
  const auto b = evaluator.evaluate(encounter::head_on(), 42);
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.nmac_count, b.nmac_count);
  const auto c = evaluator.evaluate(encounter::head_on(), 43);
  EXPECT_NE(a.fitness, c.fitness);
}

TEST_F(FitnessTest, RunOnceRecordsTrajectoryOnDemand) {
  const EncounterEvaluator evaluator(fast_config(), acas(), acas());
  const auto with = evaluator.run_once(encounter::head_on(), 1, 0, true);
  EXPECT_FALSE(with.trajectory.empty());
  const auto without = evaluator.run_once(encounter::head_on(), 1, 0, false);
  EXPECT_TRUE(without.trajectory.empty());
  // Same seed derivation: identical outcome either way.
  EXPECT_DOUBLE_EQ(with.proximity.min_distance_m, without.proximity.min_distance_m);
}

TEST_F(FitnessTest, SimTimeCoversEncounter) {
  // The evaluator must simulate past t_cpa; a long encounter still sees
  // its CPA.
  const EncounterEvaluator evaluator(fast_config(5), none(), none());
  encounter::EncounterParams params = encounter::head_on();
  params.t_cpa_s = 55.0;
  const auto eval = evaluator.evaluate(params, 3);
  // Nearly every run collides; disturbance may let the odd one escape, but
  // a truncated simulation window would miss ALL of them.
  EXPECT_GE(eval.nmac_count + 1, eval.runs) << "CPA at 55 s must be inside the simulated window";
}

TEST_F(FitnessTest, MeanMissTracksGeometry) {
  const EncounterEvaluator evaluator(fast_config(), none(), none());
  encounter::EncounterParams params = encounter::crossing();
  params.r_cpa_m = 120.0;
  params.y_cpa_m = 50.0;
  const auto eval = evaluator.evaluate(params, 4);
  // The analytic straight-line CPA for this geometry (the encoded offset is
  // not perpendicular to the relative velocity, so it is below
  // hypot(120, 50) = 130); disturbance adds scatter around it.
  const auto init = encounter::generate_initial_states(params);
  const Vec3 d0 = init.intruder.position_m - init.own.position_m;
  const Vec3 dv = init.intruder.velocity_mps() - init.own.velocity_mps();
  const double analytic_miss = (d0 + dv * (-d0.dot(dv) / dv.norm_sq())).norm();
  EXPECT_NEAR(eval.mean_miss_m, analytic_miss, 25.0);
  EXPECT_LT(eval.mean_miss_m, 131.0);
}

TEST_F(FitnessTest, RejectsDegenerateConfig) {
  FitnessConfig bad;
  bad.runs_per_encounter = 0;
  EXPECT_THROW(EncounterEvaluator(bad, acas(), acas()), ContractViolation);
  FitnessConfig bad2;
  bad2.gain_max = 0.0;
  EXPECT_THROW(EncounterEvaluator(bad2, acas(), acas()), ContractViolation);
}

}  // namespace
}  // namespace cav::core
