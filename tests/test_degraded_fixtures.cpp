// Regression pins for the GA-found degraded-mode fixtures (slow tier:
// coarse pairwise + joint table solves, then a handful of full encounter
// replays).  Each fixture freezes (geometry, fault conditions, seed) from
// the E14 attack campaign; these tests pin the own-NMAC outcome under every
// threat policy AND the fault-free control, so a change to the fault
// models, the coordination channel, or the tables that flips a frozen
// worst case is caught — in either direction.  Each fixture's seed is the
// smallest at which both properties hold; the contrast is a property of
// that seed, not of the geometry (per-seed sweeps in scenario_library.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/coordination.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace cav::scenarios {
namespace {

class DegradedFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool pool;
    table_ = std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool));
    joint_ = std::make_shared<const acasx::JointLogicTable>(
        acasx::solve_joint_table(acasx::JointConfig::coarse(), &pool));
  }

  static bool run_nmac(const DegradedScenario& d, sim::ThreatPolicy policy) {
    sim::SimConfig config;
    config.threat_policy = policy;
    const sim::CasFactory factory = sim::AcasXuCas::factory(table_, {}, {}, {}, joint_);
    return run_degraded_scenario(d, config, factory, factory).own_nmac();
  }

  /// The same frozen (geometry, seed) with every fault stripped.
  static DegradedScenario clean_control(const DegradedScenario& d) {
    DegradedScenario plain = d;
    plain.coordination = sim::CoordinationConfig{};
    plain.fault = sim::FaultProfile::none();
    return plain;
  }

  static std::shared_ptr<const acasx::LogicTable> table_;
  static std::shared_ptr<const acasx::JointLogicTable> joint_;
};

std::shared_ptr<const acasx::LogicTable> DegradedFixtureTest::table_;
std::shared_ptr<const acasx::JointLogicTable> DegradedFixtureTest::joint_;

TEST_F(DegradedFixtureTest, BlackoutPincerNmacsUnderEveryPolicyWhenDegraded) {
  const DegradedScenario d = ga_blackout_pincer();
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kNearest));
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kCostFused));
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kJointTable));
}

TEST_F(DegradedFixtureTest, BlackoutPincerCleanControlResolvesUnderJointTable) {
  // At the pinned seed the degradation defeats the strongest policy: with
  // faults stripped the joint table resolves the pincer.  This holds at
  // that seed only; over seeds 1-200 the fault-free control NMACs under the
  // joint table on 167 (see ga_blackout_pincer()).
  const DegradedScenario d = ga_blackout_pincer();
  EXPECT_FALSE(run_nmac(clean_control(d), sim::ThreatPolicy::kJointTable));
}

TEST_F(DegradedFixtureTest, BurstStaleOvertakeNmacsUnderEveryPolicyWhenDegraded) {
  const DegradedScenario d = ga_burst_stale_overtake();
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kNearest));
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kCostFused));
  EXPECT_TRUE(run_nmac(d, sim::ThreatPolicy::kJointTable));
}

TEST_F(DegradedFixtureTest, BurstStaleOvertakeCleanControlResolvesUnderJointTable) {
  const DegradedScenario d = ga_burst_stale_overtake();
  EXPECT_FALSE(run_nmac(clean_control(d), sim::ThreatPolicy::kJointTable));
}

}  // namespace
}  // namespace cav::scenarios
