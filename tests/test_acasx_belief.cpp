// Belief-averaged (QMDP-style) online logic tests: zero sigmas are the
// point estimate bit for bit, convexity of the averaged costs, uncertainty-
// driven behaviour differences, and closed-loop value under degraded
// surveillance.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "acasx/offline_solver.h"
#include "acasx/online_logic.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {
namespace {

AircraftTrack track(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

/// The default ADS-B vertical noise (7.5 m, 0.5 m/s) in feet.
constexpr BeliefConfig kSensorBelief{25.0, 1.6};

class BeliefTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const LogicTable>(
        std::make_shared<const LogicTable>(solve_logic_table(AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static std::shared_ptr<const LogicTable>* table_;
};

std::shared_ptr<const LogicTable>* BeliefTest::table_ = nullptr;

TEST_F(BeliefTest, ZeroSigmaReducesToPointEstimateLogic) {
  // Both sigmas at 0 leave one sigma point of weight 1: every alerting
  // decision carries the table's own costs at the measured state.
  AcasXuLogic logic(*table_, {}, BeliefConfig{0.0, 0.0});
  const double tau_alert_max_s = logic.config().tau_alert_max_s;
  int alerting = 0;
  for (double x = 2500.0; x > 200.0; x -= 150.0) {
    for (double dz : {-80.0, -20.0, 0.0, 20.0, 80.0}) {
      const auto own = track(0, 0, 1000, 40, 0, 0);
      const auto intr = track(x, 0, 1000 + dz, -40, 0, dz > 0 ? -2.0 : 2.0);
      const Advisory before = logic.current_advisory();
      const Advisory a = logic.decide(own, intr);
      const TauEstimate& tau = logic.last_tau();
      if (!tau.converging || tau.tau_s > tau_alert_max_s) {
        ASSERT_EQ(a, Advisory::kCoc) << "x=" << x << " dz=" << dz;
        continue;
      }
      ++alerting;
      const auto direct = (*table_)->action_costs(
          tau.tau_s, units::m_to_ft(intr.position_m.z - own.position_m.z),
          units::m_to_ft(own.velocity_mps.z), units::m_to_ft(intr.velocity_mps.z), before);
      for (std::size_t i = 0; i < kNumAdvisories; ++i) {
        ASSERT_EQ(logic.last_costs()[i], direct[i]) << "x=" << x << " dz=" << dz;
      }
      ASSERT_EQ(a, select_advisory(direct, Sense::kNone, before)) << "x=" << x << " dz=" << dz;
    }
  }
  EXPECT_GT(alerting, 0);
}

TEST_F(BeliefTest, AveragedCostsAreConvexCombinations) {
  BeliefConfig config;
  config.h_sigma_ft = 100.0;
  config.dh_int_sigma_fps = 5.0;
  AcasXuLogic belief(*table_, {}, config);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1015, -40, 0, -1.0);
  belief.decide(own, intr);

  // Recompute the extreme sigma-point costs by hand and bracket.
  const double h = 1015.0 - 1000.0;
  const double h_ft = h * 3.280839895;
  const double spread_h = std::sqrt(3.0) * config.h_sigma_ft;
  const double spread_v = std::sqrt(3.0) * config.dh_int_sigma_fps;
  const double tau = belief.last_tau().tau_s;
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    double lo = 1e30;
    double hi = -1e30;
    for (const double hp : {h_ft - spread_h, h_ft, h_ft + spread_h}) {
      for (const double vp : {-3.280839895 - spread_v, -3.280839895, -3.280839895 + spread_v}) {
        const auto costs = (*table_)->action_costs(tau, hp, 0.0, vp, Advisory::kCoc);
        lo = std::min(lo, costs[a]);
        hi = std::max(hi, costs[a]);
      }
    }
    EXPECT_GE(belief.last_costs()[a], lo - 1e-6);
    EXPECT_LE(belief.last_costs()[a], hi + 1e-6);
  }
}

TEST_F(BeliefTest, FarTrafficStillCoc) {
  AcasXuLogic belief(*table_, {}, kSensorBelief);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(30000, 0, 1000, -40, 0, 0);
  EXPECT_EQ(belief.decide(own, intr), Advisory::kCoc);
}

TEST_F(BeliefTest, CoordinationMaskRespected) {
  // Close geometry (tau ~ 9 s) where alerting survives the belief smear:
  // near the alert/no-alert boundary the averaged costs legitimately tip
  // back to COC (see UncertaintyChangesCommitmentNearAmbiguity).
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(900, 0, 1000, -40, 0, 0);
  AcasXuLogic free_logic(*table_, {}, kSensorBelief);
  const Advisory unconstrained = free_logic.decide(own, intr);
  ASSERT_NE(unconstrained, Advisory::kCoc);
  AcasXuLogic constrained(*table_, {}, kSensorBelief);
  const Advisory forced = constrained.decide(own, intr, sense_of(unconstrained));
  EXPECT_NE(sense_of(forced), sense_of(unconstrained));
}

TEST_F(BeliefTest, UncertaintyChangesCommitmentNearAmbiguity) {
  // Near-ambiguous geometry (small |h|): the belief average smears the
  // sharp sense preference, so across a sweep of small offsets the two
  // logics must disagree somewhere (otherwise the belief adds nothing).
  BeliefConfig config;
  config.h_sigma_ft = 150.0;
  config.dh_int_sigma_fps = 6.0;
  int disagreements = 0;
  for (double dz = -30.0; dz <= 30.0; dz += 5.0) {
    AcasXuLogic point(*table_);
    AcasXuLogic belief(*table_, {}, config);
    const auto own = track(0, 0, 1000, 40, 0, 0);
    const auto intr = track(1100, 0, 1000 + dz, -40, 0, 0);
    if (point.decide(own, intr) != belief.decide(own, intr)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST_F(BeliefTest, RejectsInvalidConfig) {
  EXPECT_THROW(AcasXuLogic(*table_, {}, BeliefConfig{-1.0, 1.6}), ContractViolation);
  EXPECT_THROW(AcasXuLogic(*table_, {}, BeliefConfig{25.0, -1.0}), ContractViolation);
  EXPECT_THROW(AcasXuLogic(nullptr, {}, kSensorBelief), ContractViolation);
}

TEST_F(BeliefTest, ResetClearsAdvisory) {
  AcasXuLogic belief(*table_, {}, kSensorBelief);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(900, 0, 1000, -40, 0, 0);
  ASSERT_NE(belief.decide(own, intr), Advisory::kCoc);
  belief.reset();
  EXPECT_EQ(belief.current_advisory(), Advisory::kCoc);
}

TEST_F(BeliefTest, ModerateBeliefClosedLoopNotLessSafe) {
  // Closed-loop property (E9(g) quantifies the full sweep): a belief sigma
  // in the order of the actual sensor noise keeps head-on resolution at
  // least as safe as the point-estimate logic.
  core::FitnessConfig config;
  config.runs_per_encounter = 60;
  config.sim.adsb.vertical_pos_sigma_m = 30.0;

  const BeliefConfig belief{80.0, 1.6};

  const core::EncounterEvaluator point_eval(config, sim::AcasXuCas::factory(*table_),
                                            sim::AcasXuCas::factory(*table_));
  const core::EncounterEvaluator belief_eval(
      config, sim::AcasXuCas::factory(*table_, {.belief = belief}),
      sim::AcasXuCas::factory(*table_, {.belief = belief}));

  const auto point_result = point_eval.evaluate(encounter::head_on(), 9);
  const auto belief_result = belief_eval.evaluate(encounter::head_on(), 9);
  EXPECT_LE(belief_result.nmac_count, point_result.nmac_count + 2);
}

TEST_F(BeliefTest, OversizedBeliefSuppressesAlertGradient) {
  // The documented failure mode of naive QMDP-style averaging: smear the
  // belief far beyond the table's structure and the maneuver-vs-COC
  // gradient washes out, so the logic stops alerting on a genuine
  // co-altitude collision course.
  BeliefConfig oversized;
  oversized.h_sigma_ft = 500.0;
  oversized.dh_int_sigma_fps = 20.0;
  AcasXuLogic smeared(*table_, {}, oversized);
  AcasXuLogic point(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  int point_alerts = 0;
  int smeared_alerts = 0;
  for (double x = 1500.0; x > 300.0; x -= 80.0) {
    const auto intr = track(x, 0, 1000, -40, 0, 0);
    if (point.decide(own, intr) != Advisory::kCoc) ++point_alerts;
    if (smeared.decide(own, intr) != Advisory::kCoc) ++smeared_alerts;
  }
  EXPECT_GT(point_alerts, 0);
  EXPECT_LT(smeared_alerts, point_alerts);
}

}  // namespace
}  // namespace cav::acasx
