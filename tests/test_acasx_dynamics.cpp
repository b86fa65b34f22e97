#include "acasx/dynamics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cav::acasx {
namespace {

TEST(SigmaSamples, MatchGaussianMoments) {
  const double sigma = 3.0;
  const auto samples = sigma_samples(sigma);
  double mean = 0.0;
  double var = 0.0;
  double weight_sum = 0.0;
  for (const auto& s : samples) {
    weight_sum += s.weight;
    mean += s.weight * s.accel_fps2;
  }
  for (const auto& s : samples) {
    var += s.weight * (s.accel_fps2 - mean) * (s.accel_fps2 - mean);
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var, sigma * sigma, 1e-9);
}

TEST(SigmaSamples, ZeroSigmaDegenerates) {
  const auto samples = sigma_samples(0.0);
  for (const auto& s : samples) EXPECT_DOUBLE_EQ(s.accel_fps2, 0.0);
}

TEST(RateResponse, CocHoldsRate) {
  DynamicsConfig dyn;
  EXPECT_DOUBLE_EQ(advisory_rate_response(12.3, Advisory::kCoc, dyn), 12.3);
}

TEST(RateResponse, AcceleratesTowardTarget) {
  DynamicsConfig dyn;  // initial accel ~8.04 ft/s^2, dt 1 s
  // From level flight toward CL1500 (25 ft/s): one step gains ~8 ft/s.
  const double v1 = advisory_rate_response(0.0, Advisory::kClimb1500, dyn);
  EXPECT_NEAR(v1, dyn.accel_initial_fps2, 1e-9);
  EXPECT_LT(v1, 25.0);
}

TEST(RateResponse, CapturesTargetWithoutOvershoot) {
  DynamicsConfig dyn;
  double v = 0.0;
  for (int i = 0; i < 10; ++i) v = advisory_rate_response(v, Advisory::kClimb1500, dyn);
  EXPECT_NEAR(v, 25.0, 1e-9);  // exactly 1500 fpm, no overshoot
}

TEST(RateResponse, AlreadyPastTargetHolds) {
  DynamicsConfig dyn;
  // Climbing at 30 ft/s with a CL1500 (25 ft/s) advisory: the advisory is a
  // "at least" in reality, but our response model tracks the target rate;
  // it must approach from above, not jump.
  const double v = advisory_rate_response(30.0, Advisory::kClimb1500, dyn);
  EXPECT_LT(v, 30.0);
  EXPECT_GE(v, 25.0 - 1e-9);
}

TEST(RateResponse, StrengthenedUsesLargerAcceleration) {
  DynamicsConfig dyn;
  const double d1 = advisory_rate_response(0.0, Advisory::kClimb1500, dyn);
  const double d2 = advisory_rate_response(0.0, Advisory::kClimb2500, dyn);
  EXPECT_GT(d2, d1);
  EXPECT_NEAR(d2, dyn.accel_strength_fps2, 1e-9);
}

TEST(RateResponse, DescendMirrorsClimb) {
  DynamicsConfig dyn;
  EXPECT_DOUBLE_EQ(advisory_rate_response(0.0, Advisory::kDescend1500, dyn),
                   -advisory_rate_response(0.0, Advisory::kClimb1500, dyn));
}

TEST(Integrate, TrapezoidalRelativeAltitude) {
  // Constant rates: h moves by (vi - vo) * dt.
  EXPECT_DOUBLE_EQ(integrate_relative_altitude(100.0, 0.0, 0.0, 10.0, 10.0, 1.0), 110.0);
  // Ramping rates use the average.
  EXPECT_DOUBLE_EQ(integrate_relative_altitude(0.0, 0.0, 10.0, 0.0, 0.0, 1.0), -5.0);
  EXPECT_DOUBLE_EQ(integrate_relative_altitude(0.0, 0.0, 0.0, 0.0, 10.0, 2.0), 10.0);
}

TEST(ActionCost, MatchesPaperNumbers) {
  const CostModel costs;
  // Level off rewarded 50.
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kCoc, Advisory::kCoc, costs), -50.0);
  // Maneuver costs 100.
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kCoc, Advisory::kClimb1500, costs), 100.0);
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb1500, Advisory::kClimb1500, costs), 100.0);
}

TEST(ActionCost, StrengthenSurcharge) {
  const CostModel costs;
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb1500, Advisory::kClimb2500, costs),
                   costs.strengthened_maneuver_cost + costs.strengthen_cost);
  // Continuing a strengthened advisory pays only the per-step cost.
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb2500, Advisory::kClimb2500, costs),
                   costs.strengthened_maneuver_cost);
}

TEST(ActionCost, ReversalSurcharge) {
  const CostModel costs;
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb1500, Advisory::kDescend1500, costs),
                   costs.maneuver_cost + costs.reversal_cost);
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kDescend1500, Advisory::kClimb2500, costs),
                   costs.strengthened_maneuver_cost + costs.reversal_cost);
}

TEST(ActionCost, TerminationSurcharge) {
  const CostModel costs;
  // Dropping an active advisory collects the level reward but pays the
  // termination surcharge (anti-chattering hysteresis).
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb2500, Advisory::kCoc, costs),
                   -costs.level_reward + costs.termination_cost);
  // Staying clear of conflict pays nothing extra.
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kCoc, Advisory::kCoc, costs), -costs.level_reward);
}

TEST(ActionCost, ZeroTerminationCostRestoresPureLevelReward) {
  CostModel costs;
  costs.termination_cost = 0.0;
  EXPECT_DOUBLE_EQ(action_cost(Advisory::kClimb2500, Advisory::kCoc, costs), -50.0);
}

TEST(ActionCost, TableHoldsEveryPairsCost) {
  CostModel revised;
  revised.maneuver_cost = 250.0;
  revised.reversal_cost = 700.0;
  revised.level_reward = 12.5;
  revised.termination_cost = 0.0;
  for (const CostModel& costs : {CostModel{}, revised}) {
    const ActionCostTable table = action_cost_table(costs);
    for (const Advisory ra : kAllAdvisories) {
      for (const Advisory a : kAllAdvisories) {
        // Bit equality: the solvers' backups read the table in place of
        // the call, and every table pin depends on the same doubles.
        EXPECT_EQ(table[static_cast<std::size_t>(ra) * kNumAdvisories +
                        static_cast<std::size_t>(a)],
                  action_cost(ra, a, costs))
            << advisory_name(ra) << " -> " << advisory_name(a);
      }
    }
  }
}

}  // namespace
}  // namespace cav::acasx
