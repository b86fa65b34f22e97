// Horizontal-logic tests: solver invariants, geometric symmetries, the
// blind-spot coverage that motivates the module, and closed-loop behaviour
// of the combined system.
#include "acasx/horizontal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "acasx/offline_solver.h"
#include "coarse_horizontal_table.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "serving/xxh64.h"
#include "sim/acasx_cas.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::acasx {
namespace {

AircraftTrack track(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

class HorizontalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const HorizontalTable>(coarse_horizontal_table());
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static const HorizontalConfig& config() { return (*table_)->config(); }
  static std::shared_ptr<const HorizontalTable>* table_;
};

std::shared_ptr<const HorizontalTable>* HorizontalTest::table_ = nullptr;

TEST_F(HorizontalTest, AllEntriesFinite) {
  for (const float q : (*table_)->raw()) {
    ASSERT_TRUE(std::isfinite(q));
  }
}

TEST_F(HorizontalTest, ConflictDiskIsAbsorbingCost) {
  const auto costs = (*table_)->action_costs(0.0, 0.0, 10.0, 0.0);
  for (const double c : costs) {
    EXPECT_NEAR(c, config().conflict_cost, 1.0);
  }
}

TEST_F(HorizontalTest, SafeDivergingStatePrefersStraight) {
  // Intruder behind and receding: straight collects the reward.
  const auto costs = (*table_)->action_costs(-1200.0, 0.0, -30.0, 0.0);
  EXPECT_LT(costs[0], costs[1]);
  EXPECT_LT(costs[0], costs[2]);
  // Value approaches the all-straight fixed point -reward/(1-discount).
  const double baseline = -config().straight_reward / (1.0 - config().discount);
  EXPECT_NEAR(costs[0], baseline, 150.0);
}

TEST_F(HorizontalTest, SlowOvertakeThreatIsVisible) {
  // The tau blind spot geometry: intruder 200 m behind closing slowly.
  // The relative-velocity state makes this a real, costed threat, and
  // near the conflict disk turning beats holding course.  (Far out, the
  // DP rationally defers the turn — see SlowOvertakeDefersTurnWhenFar.)
  for (const double rv : {4.0, 6.0, 12.0}) {
    const auto costs = (*table_)->action_costs(-200.0, 0.0, rv, 0.0);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_GT(best, 0.0) << "rv = " << rv << ": slow overtake must not look safe";
    EXPECT_LT(std::min(costs[1], costs[2]), costs[0]) << "rv = " << rv;
  }
}

TEST_F(HorizontalTest, SlowOvertakeDefersTurnWhenFar) {
  // 800 m out at 4 m/s the conflict is minutes away: holding course and
  // turning later is cheaper — but the state must still cost more than a
  // diverging one (the threat is visible, just not urgent).
  const auto closing = (*table_)->action_costs(-800.0, 0.0, 4.0, 0.0);
  const auto diverging = (*table_)->action_costs(-800.0, 0.0, -4.0, 0.0);
  EXPECT_LT(closing[0], std::min(closing[1], closing[2]));
  const double best_closing = *std::min_element(closing.begin(), closing.end());
  const double best_diverging = *std::min_element(diverging.begin(), diverging.end());
  EXPECT_GT(best_closing, best_diverging);
}

TEST_F(HorizontalTest, MirrorSymmetry) {
  // Reflecting the geometry across the own-ship axis (dy -> -dy,
  // rvy -> -rvy) swaps the left/right advisories.
  const auto costs = (*table_)->action_costs(900.0, 300.0, -40.0, -5.0);
  const auto mirrored = (*table_)->action_costs(900.0, -300.0, -40.0, 5.0);
  EXPECT_NEAR(costs[0], mirrored[0], 1.0);
  EXPECT_NEAR(costs[static_cast<std::size_t>(TurnAdvisory::kTurnLeft)],
              mirrored[static_cast<std::size_t>(TurnAdvisory::kTurnRight)], 1.0);
  EXPECT_NEAR(costs[static_cast<std::size_t>(TurnAdvisory::kTurnRight)],
              mirrored[static_cast<std::size_t>(TurnAdvisory::kTurnLeft)], 1.0);
}

TEST_F(HorizontalTest, CostDecreasesWithMissDistance) {
  // Same closing velocity, growing lateral offset: the best cost falls.
  double previous = std::numeric_limits<double>::infinity();
  for (const double dy : {0.0, 400.0, 800.0, 1400.0}) {
    const auto costs = (*table_)->action_costs(1000.0, dy, -40.0, 0.0);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_LE(best, previous + 1.0) << "dy = " << dy;
    previous = best;
  }
}

/// Very small space for solver-plumbing tests (serial solves stay fast).
HorizontalConfig tiny_config() {
  HorizontalConfig c;
  c.x_m = UniformAxis(-1200.0, 1200.0, 9);
  c.y_m = UniformAxis(-1200.0, 1200.0, 9);
  c.rvx_mps = UniformAxis(-60.0, 60.0, 7);
  c.rvy_mps = UniformAxis(-60.0, 60.0, 7);
  c.conflict_radius_m = 300.0;
  c.tolerance = 2.0;
  c.max_iterations = 250;
  return c;
}

TEST_F(HorizontalTest, SolverStatsReported) {
  HorizontalSolveStats stats;
  const HorizontalTable t = solve_horizontal_table(tiny_config(), nullptr, &stats);
  EXPECT_GT(stats.states, 0U);
  EXPECT_GT(stats.iterations, 5U);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_LE(stats.residual, tiny_config().tolerance + 1e-9);
}

TEST_F(HorizontalTest, ParallelMatchesSerial) {
  const HorizontalConfig config = tiny_config();
  const HorizontalTable serial = solve_horizontal_table(config);
  ThreadPool pool(4);
  const HorizontalTable parallel = solve_horizontal_table(config, &pool);
  ASSERT_EQ(serial.raw().size(), parallel.raw().size());
  for (std::size_t i = 0; i < serial.raw().size(); ++i) {
    ASSERT_EQ(serial.raw()[i], parallel.raw()[i]) << "entry " << i;
  }
}

// Byte pin: XXH64 of the coarse table's values, captured while
// GridN::interpolate still carried its own copy of the corner loop.  The
// horizontal solve interpolates every successor through it, so any change
// to the corner construction's rounding or order shows here.
TEST_F(HorizontalTest, CoarseTableBytesArePinned) {
  const std::vector<float>& q = (*table_)->raw();
  serving::Xxh64 hash;
  hash.update(q.data(), q.size() * sizeof(float));
  EXPECT_EQ(hash.digest(), 0x96f716e9fd0338d3ULL);
}

TEST_F(HorizontalTest, OnlineFarTrafficStraight) {
  HorizontalLogic logic(*table_);
  EXPECT_EQ(logic.decide(track(0, 0, 1000, 35, 0, 0), track(9000, 0, 1000, -35, 0, 0)),
            TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, OnlineSlowOvertakeTurns) {
  HorizontalLogic logic(*table_);
  // Own at 25 m/s, intruder 200 m behind at 31 m/s on the same course:
  // inside the turn-now region of the solved policy.
  const auto a = logic.decide(track(0, 0, 1000, 25, 0, 0), track(-200, 0, 1000, 31, 0, 0));
  EXPECT_NE(a, TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, OnlineBodyFrameIsHeadingRelative) {
  // The same geometry rotated by 90 degrees must give the same advisory.
  HorizontalLogic logic_east(*table_);
  const auto east = logic_east.decide(track(0, 0, 1000, 25, 0, 0), track(-300, 40, 1000, 31, 0, 0));
  HorizontalLogic logic_north(*table_);
  const auto north =
      logic_north.decide(track(0, 0, 1000, 0, 25, 0), track(-40, -300, 1000, 0, 31, 0));
  EXPECT_EQ(east, north);
}

TEST_F(HorizontalTest, OnlineZeroSpeedIsStraight) {
  HorizontalLogic logic(*table_);
  EXPECT_EQ(logic.decide(track(0, 0, 1000, 0, 0, 0), track(-300, 0, 1000, 31, 0, 0)),
            TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, NullTableRejected) {
  EXPECT_THROW(HorizontalLogic(nullptr), ContractViolation);
}

TEST_F(HorizontalTest, AdvisoryNamesAndRates) {
  EXPECT_STREQ(turn_advisory_name(TurnAdvisory::kStraight), "STRAIGHT");
  EXPECT_GT(turn_rate_of(TurnAdvisory::kTurnLeft, 0.1), 0.0);
  EXPECT_LT(turn_rate_of(TurnAdvisory::kTurnRight, 0.1), 0.0);
  EXPECT_EQ(turn_rate_of(TurnAdvisory::kStraight, 0.1), 0.0);
}

// Queries on an unsolved coarse table whose values are set by hand, so no
// solve runs.

/// The coarse grid's table with pseudo-random values in every entry.
HorizontalTable filled_coarse_table() {
  HorizontalTable table(HorizontalConfig::coarse());
  RngStream rng(2026);
  for (float& q : table.raw()) q = static_cast<float>(rng.uniform(-1000.0, 1000.0));
  return table;
}

TEST(HorizontalQueryTest, NanFieldIsRejected) {
  const HorizontalTable table(HorizontalConfig::coarse());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(table.action_costs(nan, 0.0, 0.0, 0.0), ContractViolation);
  EXPECT_THROW(table.action_costs(0.0, nan, 0.0, 0.0), ContractViolation);
  EXPECT_THROW(table.action_costs(0.0, 0.0, nan, 0.0), ContractViolation);
  EXPECT_THROW(table.action_costs(0.0, 0.0, 0.0, nan), ContractViolation);
}

TEST(HorizontalQueryTest, InfiniteFieldClampsToTheEdge) {
  const HorizontalTable table = filled_coarse_table();
  const HorizontalConfig& c = table.config();
  const double inf = std::numeric_limits<double>::infinity();
  const std::array<double, 4> inside{130.0, -270.0, 7.5, -3.0};
  const std::array<const UniformAxis*, 4> axes{&c.x_m, &c.y_m, &c.rvx_mps, &c.rvy_mps};
  for (std::size_t d = 0; d < 4; ++d) {
    for (const double sign : {-1.0, 1.0}) {
      std::array<double, 4> at_inf = inside;
      std::array<double, 4> at_edge = inside;
      at_inf[d] = sign * inf;
      at_edge[d] = sign < 0.0 ? axes[d]->lo() : axes[d]->hi();
      EXPECT_EQ(table.action_costs(at_inf[0], at_inf[1], at_inf[2], at_inf[3]),
                table.action_costs(at_edge[0], at_edge[1], at_edge[2], at_edge[3]))
          << "axis " << d << ", sign " << sign;
    }
  }
}

TEST(HorizontalQueryTest, CostsMatchPerActionInterpolation) {
  const HorizontalTable table = filled_coarse_table();
  const HorizontalConfig& c = table.config();
  // One action's values, as GridN::interpolate reads them.
  struct ActionValues {
    const std::vector<float>* q;
    std::size_t action;
    float operator[](std::size_t flat) const { return (*q)[flat * kNumTurnAdvisories + action]; }
  };
  RngStream rng(7);
  const auto draw = [&](const UniformAxis& axis) {
    // 10% past each edge, so clamped points are drawn too.
    const double margin = 0.1 * (axis.hi() - axis.lo());
    return rng.uniform(axis.lo() - margin, axis.hi() + margin);
  };
  for (int i = 0; i < 10000; ++i) {
    const std::array<double, 4> x{draw(c.x_m), draw(c.y_m), draw(c.rvx_mps), draw(c.rvy_mps)};
    const auto costs = table.action_costs(x[0], x[1], x[2], x[3]);
    std::array<double, kNumTurnAdvisories> oracle{};
    for (std::size_t a = 0; a < kNumTurnAdvisories; ++a) {
      oracle[a] = table.grid().interpolate(ActionValues{&table.raw(), a}, x);
    }
    ASSERT_EQ(std::memcmp(costs.data(), oracle.data(), sizeof(costs)), 0) << "point " << i;
  }
}

class CombinedClosedLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool pool;
    vertical_ = new std::shared_ptr<const LogicTable>(std::make_shared<const LogicTable>(
        solve_logic_table(AcasXuConfig::coarse(), &pool)));
    horizontal_ = new std::shared_ptr<const HorizontalTable>(coarse_horizontal_table());
  }
  static void TearDownTestSuite() {
    delete vertical_;
    delete horizontal_;
    vertical_ = nullptr;
    horizontal_ = nullptr;
  }
  static std::shared_ptr<const LogicTable>* vertical_;
  static std::shared_ptr<const HorizontalTable>* horizontal_;
};

std::shared_ptr<const LogicTable>* CombinedClosedLoopTest::vertical_ = nullptr;
std::shared_ptr<const HorizontalTable>* CombinedClosedLoopTest::horizontal_ = nullptr;

TEST_F(CombinedClosedLoopTest, RevisionClosesTheTailBlindSpot) {
  core::FitnessConfig config;
  config.runs_per_encounter = 60;
  const auto vertical_only = sim::AcasXuCas::factory(*vertical_);
  const auto combined = sim::AcasXuCas::factory(*vertical_, {.horizontal = *horizontal_});

  const core::EncounterEvaluator before(config, vertical_only, vertical_only);
  const core::EncounterEvaluator after(config, combined, combined);

  const auto tail_before = before.evaluate(encounter::tail_approach(), 1);
  const auto tail_after = after.evaluate(encounter::tail_approach(), 1);
  EXPECT_GT(tail_before.nmac_count, 50U) << "the blind spot must exist pre-revision";
  EXPECT_LT(tail_after.nmac_count, tail_before.nmac_count / 4)
      << "the revision must cut tail NMACs by at least 4x";
}

TEST_F(CombinedClosedLoopTest, RevisionPreservesHeadOnResolution) {
  core::FitnessConfig config;
  config.runs_per_encounter = 60;
  const auto combined = sim::AcasXuCas::factory(*vertical_, {.horizontal = *horizontal_});
  const core::EncounterEvaluator evaluator(config, combined, combined);
  const auto head = evaluator.evaluate(encounter::head_on(), 2);
  EXPECT_LE(head.nmac_count, 3U);
}

TEST_F(CombinedClosedLoopTest, CombinedDecisionChannelsIndependent) {
  sim::AcasXuCas cas(*vertical_, {.horizontal = *horizontal_});
  // Slow overtake: expect a turn without necessarily a vertical advisory.
  const auto d = cas.decide(track(0, 0, 1000, 25, 0, 0), track(-200, 0, 1000, 31, 0, 0),
                            Sense::kNone);
  EXPECT_TRUE(d.turn);
  EXPECT_NE(d.turn_rate_rad_s, 0.0);
  // Label reflects the horizontal channel.
  EXPECT_TRUE(d.label.find("+L") != std::string::npos ||
              d.label.find("+R") != std::string::npos);
}

TEST_F(CombinedClosedLoopTest, ResetClearsBothChannels) {
  sim::AcasXuCas cas(*vertical_, {.horizontal = *horizontal_});
  cas.decide(track(0, 0, 1000, 25, 0, 0), track(-300, 0, 1000, 31, 0, 0), Sense::kNone);
  cas.reset();
  EXPECT_EQ(cas.logic().current_advisory(), Advisory::kCoc);
  EXPECT_EQ(cas.horizontal()->current_advisory(), TurnAdvisory::kStraight);
}

}  // namespace
}  // namespace cav::acasx
