// End-to-end simulation-engine tests: kinematics, determinism, monitor
// wiring, trajectory recording, alert bookkeeping, and the equipped/
// unequipped contrast on a head-on geometry.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>

#include "acasx/offline_solver.h"
#include "sim/acasx_cas.h"
#include "util/angles.h"
#include "util/expect.h"

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

SimConfig quiet_config() {
  SimConfig config;
  config.disturbance = DisturbanceConfig::none();
  config.adsb = AdsbConfig::perfect();
  return config;
}

AgentSetup unequipped(const UavState& s) {
  AgentSetup a;
  a.initial_state = s;
  return a;
}

class SimulationWithTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static AgentSetup equipped(const UavState& s) {
    AgentSetup a;
    a.initial_state = s;
    a.cas = std::make_unique<AcasXuCas>(*table_);
    return a;
  }
  static std::shared_ptr<const acasx::LogicTable>* table_;
};

std::shared_ptr<const acasx::LogicTable>* SimulationWithTableTest::table_ = nullptr;

TEST(Simulation, StraightLineKinematics) {
  SimConfig config = quiet_config();
  config.max_time_s = 15.0;
  // Closing at 100 m/s from 1000 m: they meet at t = 10 s.
  const auto result = run_encounter(config, unequipped(state_at(0, 0, 1000, 50, 0, 0)),
                                    unequipped(state_at(1000, 0, 1000, 50, kPi, 0)), 1);
  EXPECT_NEAR(result.elapsed_s, 15.0, 1e-9);
  // They meet in the middle: min distance ~0 (within a physics step).
  EXPECT_LT(result.proximity.min_distance_m, 6.0);
  EXPECT_NEAR(result.proximity.time_of_min_distance_s, 10.0, 0.2);
  EXPECT_TRUE(result.nmac);
  EXPECT_TRUE(result.hard_collision);
}

TEST(Simulation, NonConflictingTrafficStaysClear) {
  SimConfig config = quiet_config();
  config.max_time_s = 30.0;
  const auto result = run_encounter(config, unequipped(state_at(0, 0, 1000, 20, 0, 0)),
                                    unequipped(state_at(0, 5000, 2000, 20, 0, 0)), 2);
  EXPECT_FALSE(result.nmac);
  EXPECT_GT(result.proximity.min_distance_m, 999.0);
}

TEST(Simulation, DeterministicForSameSeed) {
  SimConfig config;  // default noise on
  config.max_time_s = 30.0;
  const auto run = [&](std::uint64_t seed) {
    return run_encounter(config, unequipped(state_at(0, 0, 1000, 30, 0, 0)),
                         unequipped(state_at(1500, 30, 1010, 30, kPi, 0)), seed);
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  EXPECT_EQ(a.nmac, b.nmac);
  const auto c = run(8);
  EXPECT_NE(a.proximity.min_distance_m, c.proximity.min_distance_m);
}

TEST(Simulation, TrajectoryRecordingSampledPerDecisionCycle) {
  SimConfig config = quiet_config();
  config.max_time_s = 20.0;
  config.record_trajectory = true;
  const auto result = run_encounter(config, unequipped(state_at(0, 0, 1000, 10, 0, 0)),
                                    unequipped(state_at(5000, 0, 1000, 10, kPi, 0)), 3);
  ASSERT_EQ(result.trajectory.size(), 20U);  // one per decision cycle
  EXPECT_DOUBLE_EQ(result.trajectory.front().t_s, 0.0);
  // Every sample holds both aircraft.
  for (const auto& s : result.trajectory) {
    EXPECT_EQ(s.position_m.size(), 2U);
    EXPECT_EQ(s.advisory.size(), 2U);
  }
}

TEST(Simulation, RejectsBadConfig) {
  SimConfig config;
  config.dt_dynamics_s = 0.0;
  EXPECT_THROW(run_encounter(config, unequipped({}), unequipped({}), 1), ContractViolation);
  SimConfig config2;
  config2.decision_period_s = 0.01;  // smaller than physics step
  EXPECT_THROW(run_encounter(config2, unequipped({}), unequipped({}), 1), ContractViolation);
}

TEST_F(SimulationWithTableTest, EquippedResolvesHeadOn) {
  SimConfig config;  // realistic noise
  config.max_time_s = 90.0;
  const auto result = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    equipped(state_at(3200, 0, 1000, 40, kPi, 0)), 11);
  EXPECT_FALSE(result.nmac);
  EXPECT_TRUE(result.agents[0].ever_alerted);
  // The DP alerts late and minimally (the paper's §III cost scale prices an
  // advisory step at 100 against an NMAC at 10000), so even two cycles of
  // g/4 climb can be cost-optimal — what matters is that it resolves.
  EXPECT_GE(result.agents[0].alert_cycles, 2);
}

TEST_F(SimulationWithTableTest, UnequippedHeadOnCollides) {
  SimConfig config;
  config.max_time_s = 90.0;
  const auto result = run_encounter(config, unequipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    unequipped(state_at(3200, 0, 1000, 40, kPi, 0)), 11);
  EXPECT_TRUE(result.nmac);
}

TEST_F(SimulationWithTableTest, CoordinationYieldsComplementarySenses) {
  SimConfig config = quiet_config();
  config.max_time_s = 90.0;
  config.record_trajectory = true;
  const auto result = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    equipped(state_at(3200, 0, 1000, 40, kPi, 0)), 12);
  // Find a cycle where both had active advisories and check opposite senses.
  bool saw_complementary = false;
  bool saw_same_sense = false;
  for (const auto& s : result.trajectory) {
    const bool own_climb = s.advisory[0].find("CL") != std::string::npos;
    const bool own_descend = s.advisory[0].find("DES") != std::string::npos;
    const bool int_climb = s.advisory[1].find("CL") != std::string::npos;
    const bool int_descend = s.advisory[1].find("DES") != std::string::npos;
    if ((own_climb && int_descend) || (own_descend && int_climb)) saw_complementary = true;
    if ((own_climb && int_climb) || (own_descend && int_descend)) saw_same_sense = true;
  }
  EXPECT_TRUE(saw_complementary);
  EXPECT_FALSE(saw_same_sense) << "coordination must prevent same-sense maneuvers";
}

TEST_F(SimulationWithTableTest, AlertBookkeeping) {
  SimConfig config = quiet_config();
  config.max_time_s = 90.0;
  const auto result = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    unequipped(state_at(3200, 0, 1000, 40, kPi, 0)), 13);
  EXPECT_TRUE(result.agents[0].ever_alerted);
  EXPECT_GE(result.agents[0].first_alert_time_s, 0.0);
  EXPECT_GT(result.agents[0].alert_cycles, 0);
  EXPECT_FALSE(result.agents[1].ever_alerted);
  EXPECT_EQ(result.agents[1].alert_cycles, 0);
}

TEST_F(SimulationWithTableTest, SensorDropoutCoastsInsteadOfCrashing) {
  SimConfig config;
  config.adsb.dropout_prob = 0.8;  // heavy surveillance loss
  config.max_time_s = 90.0;
  const auto result = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    equipped(state_at(3200, 0, 1000, 40, kPi, 0)), 14);
  // With 80% dropout decisions still happen on stale tracks; the run must
  // complete and produce a sane report either way.
  EXPECT_GT(result.proximity.min_distance_m, 0.0);
  EXPECT_NEAR(result.elapsed_s, 90.0, 1e-9);
}

TEST_F(SimulationWithTableTest, TotalSurveillanceLossMeansNoAlerts) {
  SimConfig config;
  config.adsb.dropout_prob = 1.0;
  config.max_time_s = 60.0;
  const auto result = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                                    equipped(state_at(2400, 0, 1000, 40, kPi, 0)), 15);
  EXPECT_FALSE(result.agents[0].ever_alerted);
  EXPECT_FALSE(result.agents[1].ever_alerted);
  EXPECT_TRUE(result.nmac) << "blind aircraft on a collision course collide";
}

}  // namespace
}  // namespace cav::sim
