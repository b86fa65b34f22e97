// Joint-threat table and solver (acasx/joint_table.h, joint_solver.h):
// abstraction binning, solve structure, marginalization against the
// pairwise table, query permutation invariance, serialization, and the
// compile-once / solve-per-revision bit-identity contract.
#include "acasx/joint_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>

#include "acasx/offline_solver.h"
#include "util/thread_pool.h"

namespace cav::acasx {
namespace {

/// Small shared state space: the pairwise table solved on the SAME grid is
/// the marginalization reference (identical interpolation geometry).
StateSpaceConfig tiny_space() {
  StateSpaceConfig s;
  s.h_ft = UniformAxis(-800.0, 800.0, 17);
  s.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.tau_max = 16;
  return s;
}

JointConfig tiny_joint_config() {
  JointConfig c;
  c.space = tiny_space();
  return c;
}

AcasXuConfig tiny_pairwise_config() {
  AcasXuConfig c;
  c.space = tiny_space();
  return c;
}

class JointTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new ThreadPool();
    joint_ = new JointLogicTable(solve_joint_table(tiny_joint_config(), pool_, &stats_));
    pairwise_ = new LogicTable(solve_logic_table(tiny_pairwise_config(), pool_));
  }
  static void TearDownTestSuite() {
    delete joint_;
    delete pairwise_;
    delete pool_;
    joint_ = nullptr;
    pairwise_ = nullptr;
    pool_ = nullptr;
  }

  static ThreadPool* pool_;
  static JointLogicTable* joint_;
  static LogicTable* pairwise_;
  static SolveStats stats_;
};

ThreadPool* JointTableTest::pool_ = nullptr;
JointLogicTable* JointTableTest::joint_ = nullptr;
LogicTable* JointTableTest::pairwise_ = nullptr;
SolveStats JointTableTest::stats_{};

// ---------------------------------------------------------------------------
// Abstraction binning.

TEST(SecondaryAbstractionTest, DeltaBinsSnapNearestAndClamp) {
  SecondaryAbstraction s;  // 2 bins at 0 and 10 s
  EXPECT_EQ(s.delta_bin(-3.0), 0U);
  EXPECT_EQ(s.delta_bin(0.0), 0U);
  EXPECT_EQ(s.delta_bin(4.9), 0U);
  EXPECT_EQ(s.delta_bin(5.1), 1U);
  EXPECT_EQ(s.delta_bin(10.0), 1U);
  EXPECT_EQ(s.delta_bin(500.0), 1U);
  EXPECT_EQ(s.delta_value_s(1), 10.0);
  // Offsets too large for any integer clamp before they are cast.
  EXPECT_EQ(s.delta_bin(1e300), 1U);
  EXPECT_EQ(s.delta_bin(std::numeric_limits<double>::infinity()), 1U);
  EXPECT_EQ(s.delta_bin(-std::numeric_limits<double>::infinity()), 0U);
}

TEST(SecondaryAbstractionTest, SenseClassesAndRepresentativeRates) {
  SecondaryAbstraction s;
  EXPECT_EQ(s.sense_of_rate(0.0), SecondarySense::kLevel);
  EXPECT_EQ(s.sense_of_rate(20.0), SecondarySense::kClimbing);
  EXPECT_EQ(s.sense_of_rate(-20.0), SecondarySense::kDescending);
  EXPECT_GT(s.representative_rate_fps(SecondarySense::kClimbing), 0.0);
  EXPECT_LT(s.representative_rate_fps(SecondarySense::kDescending), 0.0);
  EXPECT_EQ(s.representative_rate_fps(SecondarySense::kLevel), 0.0);
  EXPECT_EQ(s.num_slabs(), s.num_delta_bins * kNumSecondarySenses);
}

// ---------------------------------------------------------------------------
// Solve structure.

TEST_F(JointTableTest, SolveStatsAndDimensions) {
  EXPECT_EQ(stats_.layers, tiny_space().tau_max + 1);
  EXPECT_EQ(stats_.slabs, joint_->num_slabs());
  EXPECT_GT(stats_.stencil_entries, 0U);
  EXPECT_EQ(joint_->num_entries(), joint_->num_slabs() * joint_->num_tau_layers() *
                                       joint_->num_grid_points() * kNumAdvisories *
                                       kNumAdvisories);
}

TEST_F(JointTableTest, TerminalLayerChargesBothThreatsOnlyAtDeltaZero) {
  const JointConfig& config = joint_->config();
  const GridN<4>& grid = joint_->grid();
  // Grid point with both threats inside the NMAC band (h1 = 0, h2 = 0).
  std::array<std::size_t, 4> both{};
  both[0] = config.space.h_ft.nearest(0.0);
  both[3] = config.secondary.h2_ft.nearest(0.0);
  // Grid point with only the secondary clear (h2 at the axis edge).
  std::array<std::size_t, 4> only_primary = both;
  only_primary[3] = config.secondary.h2_ft.count() - 1;

  const std::size_t slab0 = config.slab_index(0, SecondarySense::kLevel);
  const std::size_t slab1 = config.slab_index(1, SecondarySense::kLevel);
  const double nmac = config.costs.nmac_cost;

  // delta bin 0: both CPAs resolve at tau = 0 -> double charge.
  EXPECT_FLOAT_EQ(joint_->at(slab0, 0, grid.flat_index(both), Advisory::kCoc, Advisory::kCoc),
                  static_cast<float>(2.0 * nmac));
  EXPECT_FLOAT_EQ(
      joint_->at(slab0, 0, grid.flat_index(only_primary), Advisory::kCoc, Advisory::kCoc),
      static_cast<float>(nmac));
  // delta bin 1: only the secondary resolves at tau = 0; the primary's
  // charge lands at the interior layer tau == delta instead.
  EXPECT_FLOAT_EQ(joint_->at(slab1, 0, grid.flat_index(both), Advisory::kCoc, Advisory::kCoc),
                  static_cast<float>(nmac));
  EXPECT_FLOAT_EQ(
      joint_->at(slab1, 0, grid.flat_index(only_primary), Advisory::kCoc, Advisory::kCoc),
      0.0F);

  // At the primary-CPA layer of delta bin 1, a state inside the primary's
  // band costs at least the NMAC charge more than the same state clear.
  // Layers advance one dynamics step each: the primary's CPA layer is
  // delta_value / dt, matching solve_slab's charge layer.
  const auto delta_layer =
      static_cast<std::size_t>(config.secondary.delta_value_s(1) / config.dynamics.dt_s);
  std::array<std::size_t, 4> clear_primary = only_primary;
  clear_primary[0] = 0;  // h1 = -800 ft, far outside the band
  const float in_band = joint_->at(slab1, delta_layer, grid.flat_index(only_primary),
                                   Advisory::kCoc, Advisory::kCoc);
  const float clear = joint_->at(slab1, delta_layer, grid.flat_index(clear_primary),
                                 Advisory::kCoc, Advisory::kCoc);
  EXPECT_GE(in_band - clear, static_cast<float>(0.5 * nmac));
}

TEST_F(JointTableTest, SqueezeRaisesCostOfManeuveringIntoSecondary) {
  // The squeeze the table exists for: primary 300 ft above, secondary
  // 300 ft below at the same CPA.  A pairwise table cannot see that the
  // escape from the primary (descend) flies into the secondary; the joint
  // table must price that descent higher than with the secondary far off.
  const auto squeeze = joint_->action_costs(8.0, 0.0, 300.0, 0.0, 0.0, -300.0,
                                            SecondarySense::kLevel, Advisory::kCoc);
  const auto clear_below = joint_->action_costs(8.0, 0.0, 300.0, 0.0, 0.0, -600.0,
                                                SecondarySense::kLevel, Advisory::kCoc);
  const auto d1500 = static_cast<std::size_t>(Advisory::kDescend1500);
  EXPECT_GT(squeeze[d1500], clear_below[d1500])
      << "descending into the lower threat must cost more than descending into clear air";
}

// ---------------------------------------------------------------------------
// Marginalization: a far, level secondary at the same CPA adds nothing the
// pairwise table does not know, for horizons too short to reach it.

TEST_F(JointTableTest, FarSecondaryReproducesPairwiseAdvisories) {
  // At tau <= 2 the own-ship cannot close the 600 ft to the secondary
  // (max |dh_own| is ~42 ft/s), so the joint costs must match the
  // pairwise costs on the shared grid and the argmin advisory exactly.
  int checked = 0;
  for (double tau1 : {0.5, 1.0, 2.0}) {
    for (double h1 : {-400.0, -150.0, -100.0, 0.0, 100.0, 150.0, 400.0}) {
      for (double dh_own : {-20.0, 0.0, 20.0}) {
        for (double dh_int : {-20.0, 0.0, 20.0}) {
          for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
            const auto current = static_cast<Advisory>(ra);
            const auto jc = joint_->action_costs(tau1, 0.0, h1, dh_own, dh_int, 600.0,
                                                 SecondarySense::kLevel, current);
            const auto pc = pairwise_->action_costs(tau1, h1, dh_own, dh_int, current);
            for (std::size_t a = 0; a < kNumAdvisories; ++a) {
              EXPECT_NEAR(jc[a], pc[a], 1e-3 + 1e-6 * std::abs(pc[a]))
                  << "tau=" << tau1 << " h1=" << h1 << " a=" << a;
            }
            EXPECT_EQ(select_advisory(jc, Sense::kNone, current),
                      select_advisory(pc, Sense::kNone, current));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

// ---------------------------------------------------------------------------
// Online query: permutation invariance and the activity envelope.

AircraftTrack track_at(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

TEST_F(JointTableTest, JointQueryInvariantUnderThreatSwap) {
  const OnlineConfig online;
  std::mt19937 rng(77);
  // Mostly-converging geometry (ahead of the own-ship, closing) so a good
  // fraction of rounds activate the joint query; the rest exercise the
  // inactive path's invariance.
  std::uniform_real_distribution<double> ahead(400.0, 2500.0);
  std::uniform_real_distribution<double> offset(-1200.0, 1200.0);
  std::uniform_real_distribution<double> alt(-180.0, 180.0);
  std::uniform_real_distribution<double> vx(-70.0, 10.0);
  std::uniform_real_distribution<double> vy(-30.0, 30.0);
  std::uniform_real_distribution<double> vs(-12.0, 12.0);

  int active_rounds = 0;
  for (int round = 0; round < 300; ++round) {
    const AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);
    const AircraftTrack a =
        track_at(ahead(rng), offset(rng), 1000 + alt(rng), vx(rng), vy(rng), vs(rng));
    const AircraftTrack b =
        track_at(ahead(rng), offset(rng), 1000 + alt(rng), vx(rng), vy(rng), vs(rng));
    bool active_ab = false;
    bool active_ba = false;
    const auto ab = joint_action_costs(*joint_, own, a, b, Advisory::kCoc, online, &active_ab);
    const auto ba = joint_action_costs(*joint_, own, b, a, Advisory::kCoc, online, &active_ba);
    ASSERT_EQ(active_ab, active_ba) << "round " << round;
    for (std::size_t i = 0; i < kNumAdvisories; ++i) {
      EXPECT_EQ(ab[i], ba[i]) << "round " << round << " advisory " << i;
    }
    if (active_ab) ++active_rounds;
  }
  EXPECT_GT(active_rounds, 20) << "the fuzz actually exercised active joint queries";
}

TEST_F(JointTableTest, QueryInactiveWhenEitherThreatOutsideEnvelope) {
  const OnlineConfig online;
  const AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);
  const AircraftTrack converging = track_at(900, 0, 1020, -40, 0, 0);
  const AircraftTrack diverging = track_at(500, 200, 980, 45, 0, 0);

  bool active = true;
  joint_action_costs(*joint_, own, converging, diverging, Advisory::kCoc, online, &active);
  EXPECT_FALSE(active) << "a diverging (tau = inf) secondary deactivates the joint query";
  joint_action_costs(*joint_, own, diverging, converging, Advisory::kCoc, online, &active);
  EXPECT_FALSE(active);

  const auto costs =
      joint_action_costs(*joint_, own, converging, converging, Advisory::kCoc, online, &active);
  EXPECT_TRUE(active);
  double spread = 0.0;
  for (const double c : costs) spread = std::max(spread, std::abs(c - costs[0]));
  EXPECT_GT(spread, 0.0) << "an active joint query carries a real preference";
}

// ---------------------------------------------------------------------------
// Serialization and the compile-once / refresh contract.

TEST_F(JointTableTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string path = ::testing::TempDir() + "joint_table_roundtrip.bin";
  joint_->save(path);
  const JointLogicTable loaded = JointLogicTable::load(path);
  ASSERT_EQ(loaded.raw().size(), joint_->raw().size());
  EXPECT_EQ(loaded.raw(), joint_->raw());
  EXPECT_EQ(loaded.config().secondary.num_delta_bins,
            joint_->config().secondary.num_delta_bins);
  EXPECT_EQ(loaded.config().space.tau_max, joint_->config().space.tau_max);
  std::remove(path.c_str());
}

TEST_F(JointTableTest, CompiledSolverMatchesOneShotBitIdentically) {
  const JointOfflineSolver solver(tiny_joint_config(), pool_);
  const JointLogicTable resolved = solver.solve(pool_);
  EXPECT_EQ(resolved.raw(), joint_->raw());

  // Re-solving with the same costs is bit-identical (the refresh_costs
  // contract); a cost revision changes the table but not the stencils.
  const JointLogicTable again = solver.solve(pool_);
  EXPECT_EQ(again.raw(), resolved.raw());

  CostModel revised = tiny_joint_config().costs;
  revised.maneuver_cost *= 2.0;
  SolveStats revision_stats;
  const JointLogicTable rev = solver.solve(revised, pool_, &revision_stats);
  EXPECT_EQ(revision_stats.stencil_build_seconds, 0.0);
  EXPECT_NE(rev.raw(), resolved.raw());
  EXPECT_EQ(rev.config().costs.maneuver_cost, revised.maneuver_cost);

  // And a fresh full solve under the revised costs agrees bit-identically
  // with the refreshed solve.
  JointConfig fresh_config = tiny_joint_config();
  fresh_config.costs = revised;
  const JointLogicTable fresh = solve_joint_table(fresh_config, pool_);
  EXPECT_EQ(fresh.raw(), rev.raw());
}

TEST_F(JointTableTest, SolveIsThreadCountInvariant) {
  const JointLogicTable serial = solve_joint_table(tiny_joint_config(), nullptr);
  EXPECT_EQ(serial.raw(), joint_->raw()) << "pooled and serial solves are bit-identical";
}

}  // namespace
}  // namespace cav::acasx
