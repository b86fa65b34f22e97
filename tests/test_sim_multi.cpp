// N-aircraft engine tests: bit-identity of the 2-aircraft path with the
// pre-refactor engine (golden values captured from the in-repo xoshiro256++
// streams of util/rng.h), per-pair monitor bookkeeping with 3+ aircraft,
// nearest-threat selection, the tail-step fix, and the reversal monitor.
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

/// Scripted avoidance system: replays a fixed advisory sequence, one entry
/// per decision cycle (repeating the last entry when the script runs out).
struct ScriptedStep {
  bool maneuver = false;
  acasx::Sense sense = acasx::Sense::kNone;
};

class ScriptedCas final : public CollisionAvoidanceSystem {
 public:
  explicit ScriptedCas(std::vector<ScriptedStep> script) : script_(std::move(script)) {}

  CasDecision decide(const acasx::AircraftTrack&, const acasx::AircraftTrack&,
                     acasx::Sense) override {
    const ScriptedStep& step =
        script_[cycle_ < script_.size() ? cycle_ : script_.size() - 1];
    ++cycle_;
    CasDecision d;
    d.maneuver = step.maneuver;
    d.sense = step.sense;
    d.target_vs_mps = step.sense == acasx::Sense::kClimb    ? 5.0
                      : step.sense == acasx::Sense::kDescend ? -5.0
                                                             : 0.0;
    d.accel_mps2 = 2.0;
    d.label = step.maneuver ? "RA" : "COC";
    return d;
  }
  void reset() override { cycle_ = 0; }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<ScriptedStep> script_;
  std::size_t cycle_ = 0;
};

class MultiSimWithTableTest : public ::testing::Test {
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

std::shared_ptr<const acasx::LogicTable>* MultiSimWithTableTest::table_ = nullptr;

// ---------------------------------------------------------------------------
// Bit-identity of the refactored 2-aircraft path.  The golden values were
// first captured from the pre-refactor run_encounter, then re-captured once
// when util/rng.h replaced mt19937_64 and the standard-library
// distributions with its own engine and draws; every stochastic draw
// (ADS-B noise, disturbance, coordination loss) must hit the same stream in
// the same order for these to match exactly.

TEST_F(MultiSimWithTableTest, GoldenNoisyEquippedHeadOn) {
  SimConfig config;  // default noise
  config.max_time_s = 90.0;
  const auto r = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                               equipped(state_at(3200, 0, 1000, 40, kPi, 0)), 11);
  EXPECT_EQ(r.proximity.min_distance_m, 93.35026753295476);
  EXPECT_EQ(r.proximity.min_horizontal_m, 0.39648683696987064);
  EXPECT_EQ(r.proximity.min_vertical_m, 0.0);
  EXPECT_EQ(r.proximity.time_of_min_distance_s, 40.1000000000003);
  EXPECT_FALSE(r.nmac);
  EXPECT_TRUE(r.agents[0].ever_alerted);
  EXPECT_EQ(r.agents[0].first_alert_time_s, 25.000000000000085);
  EXPECT_EQ(r.agents[0].alert_cycles, 3);
  EXPECT_EQ(r.agents[1].alert_cycles, 3);
  EXPECT_EQ(r.elapsed_s, 89.999999999999162);
}

TEST(MultiSim, GoldenNoisyUnequipped) {
  SimConfig config;
  config.max_time_s = 30.0;
  const auto r = run_encounter(config, unequipped(state_at(0, 0, 1000, 30, 0, 0)),
                               unequipped(state_at(1500, 30, 1010, 30, kPi, 0)), 7);
  EXPECT_EQ(r.proximity.min_distance_m, 30.393611436157759);
  EXPECT_EQ(r.proximity.min_horizontal_m, 30.003387762074119);
  EXPECT_EQ(r.proximity.min_vertical_m, 0.095265176367774984);
  EXPECT_TRUE(r.nmac);
  EXPECT_EQ(r.nmac_time_s, 22.600000000000051);
  EXPECT_FALSE(r.hard_collision);
  EXPECT_EQ(r.elapsed_s, 30.000000000000156);
}

TEST_F(MultiSimWithTableTest, GoldenLossyEquipped) {
  // Exercises the per-link coordination loss draws and ADS-B dropout.
  SimConfig config;
  config.max_time_s = 90.0;
  config.adsb.dropout_prob = 0.3;
  config.coordination.message_loss_prob = 0.3;
  const auto r = run_encounter(config, equipped(state_at(0, 0, 1000, 40, 0, 0)),
                               equipped(state_at(3000, 200, 1005, 35, kPi, -1)), 21);
  EXPECT_EQ(r.proximity.min_distance_m, 221.64031166610869);
  EXPECT_EQ(r.proximity.min_vertical_m, 0.06673811653820394);
  EXPECT_EQ(r.agents[0].first_alert_time_s, 26.000000000000099);
  EXPECT_EQ(r.agents[0].alert_cycles, 3);
  EXPECT_EQ(r.agents[1].first_alert_time_s, 26.000000000000099);
  EXPECT_EQ(r.agents[1].alert_cycles, 2);
}

// ---------------------------------------------------------------------------
// N-aircraft engine semantics.

TEST(MultiSim, PairwiseWrapperMatchesMultiEngine) {
  SimConfig config;  // noise on: both paths must draw identical streams
  config.max_time_s = 40.0;
  const auto own = [] { return state_at(0, 0, 1000, 30, 0, 0); };
  const auto other = [] { return state_at(1200, 0, 1000, 30, kPi, 0); };

  const auto a = run_encounter(config, unequipped(own()), unequipped(other()), 5);
  std::vector<AgentSetup> agents;
  agents.push_back(unequipped(own()));
  agents.push_back(unequipped(other()));
  const auto b = run_multi_encounter(config, std::move(agents), 5);

  EXPECT_EQ(a.proximity.min_distance_m, b.proximity.min_distance_m);
  EXPECT_EQ(a.nmac, b.nmac);
  EXPECT_EQ(a.nmac_time_s, b.nmac_time_s);
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  ASSERT_EQ(b.agents.size(), 2U);
  ASSERT_EQ(b.pairs.size(), 1U);
  EXPECT_EQ(b.pairs[0].proximity.min_distance_m, b.proximity.min_distance_m);
}

TEST(MultiSim, RejectsFewerThanTwoAircraft) {
  SimConfig config = quiet_config();
  std::vector<AgentSetup> one;
  one.push_back(unequipped(state_at(0, 0, 1000, 30, 0, 0)));
  EXPECT_THROW(run_multi_encounter(config, std::move(one), 1), ContractViolation);
}

TEST(MultiSim, PerPairMonitorsSeparateOutcomes) {
  // Aircraft 0 and 1 collide head-on at t=10; aircraft 2 cruises far away:
  // pair (0,1) records the NMAC, pairs (0,2) and (1,2) stay clear.
  SimConfig config = quiet_config();
  config.max_time_s = 20.0;
  std::vector<AgentSetup> agents;
  agents.push_back(unequipped(state_at(0, 0, 1000, 50, 0, 0)));
  agents.push_back(unequipped(state_at(1000, 0, 1000, 50, kPi, 0)));
  agents.push_back(unequipped(state_at(0, 20000, 3000, 50, 0, 0)));
  const auto r = run_multi_encounter(config, std::move(agents), 3);

  ASSERT_EQ(r.pairs.size(), 3U);
  EXPECT_TRUE(r.pair(0, 1).nmac);
  EXPECT_TRUE(r.pair(0, 1).hard_collision);
  EXPECT_FALSE(r.pair(0, 2).nmac);
  EXPECT_FALSE(r.pair(1, 2).nmac);
  EXPECT_GT(r.pair(0, 2).proximity.min_distance_m, 10000.0);
  EXPECT_TRUE(r.nmac);
  EXPECT_TRUE(r.own_nmac());
  EXPECT_NEAR(r.pair(0, 1).nmac_time_s, r.nmac_time_s, 1e-12);
  // Aggregate proximity is the (0,1) minimum; own-centric separation too.
  EXPECT_EQ(r.proximity.min_distance_m, r.pair(0, 1).proximity.min_distance_m);
  EXPECT_EQ(r.own_min_separation_m(), r.pair(0, 1).proximity.min_distance_m);
  EXPECT_THROW(r.pair(1, 3), ContractViolation);
}

TEST(MultiSim, IntruderOnlyNmacIsNotAnOwnshipNmac) {
  // Aircraft 1 and 2 collide with each other far from the own-ship.
  SimConfig config = quiet_config();
  config.max_time_s = 20.0;
  std::vector<AgentSetup> agents;
  agents.push_back(unequipped(state_at(0, -20000, 1000, 50, 0, 0)));
  agents.push_back(unequipped(state_at(0, 0, 2000, 50, 0, 0)));
  agents.push_back(unequipped(state_at(1000, 0, 2000, 50, kPi, 0)));
  const auto r = run_multi_encounter(config, std::move(agents), 3);

  EXPECT_TRUE(r.nmac) << "the (1,2) pair collides";
  EXPECT_TRUE(r.pair(1, 2).nmac);
  EXPECT_FALSE(r.own_nmac());
  EXPECT_GT(r.own_min_separation_m(), 1000.0);
  EXPECT_EQ(r.own_miss_distance_m(), r.own_min_separation_m());
  EXPECT_EQ(r.miss_distance_m(), 0.0) << "the global miss distance sees the (1,2) NMAC";
}

TEST_F(MultiSimWithTableTest, DistantThirdAircraftDoesNotPerturbNearestThreatDecisions) {
  // Noise-free: no RNG draw is consumed anywhere, so adding a far-away
  // third aircraft must leave the own-ship's decisions against the nearest
  // threat exactly unchanged (nearest-threat selection picks aircraft 1).
  SimConfig config = quiet_config();
  config.max_time_s = 90.0;
  const auto own = [] { return state_at(0, 0, 1000, 40, 0, 0); };
  const auto near_threat = [] { return state_at(3200, 0, 1000, 40, kPi, 0); };
  const auto far_away = [] { return state_at(0, 50000, 1000, 40, kPi, 0); };

  const auto two = run_encounter(config, equipped(own()), equipped(near_threat()), 17);

  std::vector<AgentSetup> agents;
  agents.push_back(equipped(own()));
  agents.push_back(equipped(near_threat()));
  agents.push_back(equipped(far_away()));
  const auto three = run_multi_encounter(config, std::move(agents), 17);

  EXPECT_EQ(two.agents[0].ever_alerted, three.agents[0].ever_alerted);
  EXPECT_EQ(two.agents[0].first_alert_time_s, three.agents[0].first_alert_time_s);
  EXPECT_EQ(two.agents[0].alert_cycles, three.agents[0].alert_cycles);
  EXPECT_EQ(two.proximity.min_distance_m, three.pair(0, 1).proximity.min_distance_m);
  EXPECT_FALSE(three.own_nmac());
}

TEST_F(MultiSimWithTableTest, EquippedResolvesTwoStaggeredThreats) {
  // Two converging intruders with CPAs ~20 s apart (head-on at t=40, a
  // crosser at t=60); the equipped own-ship must resolve them in sequence
  // and stay NMAC-free while the unequipped own-ship collides.
  SimConfig config = quiet_config();
  config.max_time_s = 110.0;
  const auto build = [&](bool equip) {
    std::vector<AgentSetup> agents;
    const auto make = [&](const UavState& s) { return equip ? equipped(s) : unequipped(s); };
    agents.push_back(make(state_at(0, 0, 1000, 40, 0, 0)));
    agents.push_back(make(state_at(3200, 60, 1000, 40, kPi, 0)));
    agents.push_back(make(state_at(2400, -2400, 1000, 40, kPi / 2.0, 0)));
    return agents;
  };
  const auto bare = run_multi_encounter(config, build(false), 23);
  EXPECT_TRUE(bare.own_nmac()) << "sanity: the geometry is a real double conflict";
  const auto protected_run = run_multi_encounter(config, build(true), 23);
  EXPECT_FALSE(protected_run.own_nmac());
  EXPECT_TRUE(protected_run.agents[0].ever_alerted);
}

TEST(MultiSim, MultiTrajectoryRecordsEveryAircraft) {
  SimConfig config = quiet_config();
  config.max_time_s = 10.0;
  config.record_trajectory = true;
  std::vector<AgentSetup> agents;
  agents.push_back(unequipped(state_at(0, 0, 1000, 10, 0, 0)));
  agents.push_back(unequipped(state_at(5000, 0, 1000, 10, kPi, 0)));
  agents.push_back(unequipped(state_at(0, 5000, 1200, 10, 0, 0)));
  const auto r = run_multi_encounter(config, std::move(agents), 4);
  ASSERT_EQ(r.trajectory.size(), 10U);
  for (const auto& s : r.trajectory) {
    EXPECT_EQ(s.position_m.size(), 3U);
    EXPECT_EQ(s.vs_mps.size(), 3U);
    EXPECT_EQ(s.advisory.size(), 3U);
  }
  EXPECT_EQ(r.trajectory.front().position_m[2], Vec3(0, 5000, 1200));
}

// ---------------------------------------------------------------------------
// Satellite fixes.

TEST(MultiSim, TailStepCoversNonIntegerMaxTime) {
  // Closing at 100 m/s from 2010 m: separation at t is 2010 - 100 t, so the
  // last 0.04 s of a 20.04 s horizon is worth 4 m of approach.  The old
  // lround() step count truncated to 20.0 s and never saw it (min 10 m).
  SimConfig config = quiet_config();
  config.max_time_s = 20.04;
  const auto r = run_encounter(config, unequipped(state_at(0, 0, 1000, 50, 0, 0)),
                               unequipped(state_at(2010, 0, 1000, 50, kPi, 0)), 1);
  EXPECT_NEAR(r.elapsed_s, 20.04, 1e-9);
  EXPECT_NEAR(r.proximity.min_distance_m, 6.0, 1e-6);
  EXPECT_NEAR(r.proximity.time_of_min_distance_s, 20.04, 1e-9);
}

TEST(MultiSim, ExactMultipleHorizonHasNoTailStep) {
  SimConfig config = quiet_config();
  config.max_time_s = 15.0;
  const auto r = run_encounter(config, unequipped(state_at(0, 0, 1000, 10, 0, 0)),
                               unequipped(state_at(5000, 0, 1000, 10, kPi, 0)), 1);
  // 150 full steps of 0.1 s, accumulated exactly as before the fix.
  EXPECT_NEAR(r.elapsed_s, 15.0, 1e-9);
}

TEST(MultiSim, TailStepNeverOvershootsTheHorizon) {
  // max_time just above a step boundary: the old lround() rounded *up* and
  // simulated past the horizon; the clamped tail stops exactly on it.
  SimConfig config = quiet_config();
  config.max_time_s = 10.06;
  const auto r = run_encounter(config, unequipped(state_at(0, 0, 1000, 10, 0, 0)),
                               unequipped(state_at(5000, 0, 1000, 10, kPi, 0)), 1);
  EXPECT_NEAR(r.elapsed_s, 10.06, 1e-9);
  EXPECT_LT(r.elapsed_s, 10.1);
}

TEST(MultiSim, ReversalCountedAcrossCoastingGap) {
  // RA(climb) -> COC -> RA(descend): the paper's reversal monitor counts
  // this as one reversal; the pre-fix bookkeeping cleared its memory on
  // the COC cycle and missed it.
  SimConfig config = quiet_config();
  config.max_time_s = 6.0;
  std::vector<ScriptedStep> script = {
      {false, acasx::Sense::kNone},   {true, acasx::Sense::kClimb},
      {false, acasx::Sense::kNone},   {false, acasx::Sense::kNone},
      {true, acasx::Sense::kDescend}, {false, acasx::Sense::kNone},
  };
  AgentSetup own;
  own.initial_state = state_at(0, 0, 1000, 30, 0, 0);
  own.cas = std::make_unique<ScriptedCas>(script);
  const auto r = run_encounter(config, std::move(own),
                               unequipped(state_at(4000, 0, 1000, 30, kPi, 0)), 1);
  EXPECT_EQ(r.agents[0].reversals, 1);
  EXPECT_EQ(r.agents[0].alert_cycles, 2);
}

TEST(MultiSim, ContiguousSenseFlipStillCountsAsReversal) {
  SimConfig config = quiet_config();
  config.max_time_s = 5.0;
  std::vector<ScriptedStep> script = {
      {true, acasx::Sense::kClimb},
      {true, acasx::Sense::kDescend},
      {true, acasx::Sense::kDescend},
  };
  AgentSetup own;
  own.initial_state = state_at(0, 0, 1000, 30, 0, 0);
  own.cas = std::make_unique<ScriptedCas>(script);
  const auto r = run_encounter(config, std::move(own),
                               unequipped(state_at(4000, 0, 1000, 30, kPi, 0)), 1);
  EXPECT_EQ(r.agents[0].reversals, 1) << "back-to-back opposite senses reverse once";
}

TEST(MultiSim, RepeatedSameSenseAfterGapIsNotAReversal) {
  SimConfig config = quiet_config();
  config.max_time_s = 5.0;
  std::vector<ScriptedStep> script = {
      {true, acasx::Sense::kClimb},
      {false, acasx::Sense::kNone},
      {true, acasx::Sense::kClimb},
  };
  AgentSetup own;
  own.initial_state = state_at(0, 0, 1000, 30, 0, 0);
  own.cas = std::make_unique<ScriptedCas>(script);
  const auto r = run_encounter(config, std::move(own),
                               unequipped(state_at(4000, 0, 1000, 30, kPi, 0)), 1);
  EXPECT_EQ(r.agents[0].reversals, 0);
}

}  // namespace
}  // namespace cav::sim
