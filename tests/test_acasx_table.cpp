// Offline-solver and logic-table properties on the coarse configuration:
// structural invariants the generated logic must have regardless of exact
// discretization (the kind of sanity validation §IV calls for).
#include "acasx/logic_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "serving/xxh64.h"
#include "util/expect.h"
#include "util/thread_pool.h"

namespace cav::acasx {
namespace {

class TableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new LogicTable(solve_logic_table(AcasXuConfig::coarse()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static const AcasXuConfig& config() { return table_->config(); }
  static LogicTable* table_;
};

LogicTable* TableTest::table_ = nullptr;

TEST_F(TableTest, AllEntriesFinite) {
  for (const float q : table_->raw()) {
    ASSERT_TRUE(std::isfinite(q));
  }
}

TEST_F(TableTest, TerminalLayerEncodesNmacCost) {
  const auto& grid = table_->grid();
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto idx = grid.unflatten(g);
    const double h = grid.axis(0).value(idx[0]);
    const float expected =
        std::abs(h) <= config().costs.nmac_h_ft ? static_cast<float>(config().costs.nmac_cost)
                                                : 0.0F;
    EXPECT_EQ(table_->at(0, g, Advisory::kCoc, Advisory::kCoc), expected);
  }
}

TEST_F(TableTest, CocPreferredWhenSafelySeparated) {
  // Intruder 1000 ft above, both level, tau = 20 s: no maneuver needed.
  const auto costs = table_->action_costs(20.0, 1000.0, 0.0, 0.0, Advisory::kCoc);
  const std::size_t coc = static_cast<std::size_t>(Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    if (a == coc) continue;
    EXPECT_LT(costs[coc], costs[a]) << "COC must beat " << advisory_name(static_cast<Advisory>(a));
  }
}

TEST_F(TableTest, AlertPreferredOnImminentCollisionCourse) {
  // Co-altitude, both level, tau = 10 s: some advisory must beat COC.
  const auto costs = table_->action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  const double coc = costs[static_cast<std::size_t>(Advisory::kCoc)];
  double best_maneuver = coc;
  for (std::size_t a = 1; a < kNumAdvisories; ++a) {
    best_maneuver = std::min(best_maneuver, costs[a]);
  }
  EXPECT_LT(best_maneuver, coc);
}

TEST_F(TableTest, MirrorSymmetryInRelativeAltitude) {
  // Flipping (h, vo, vi) -> (-h, -vo, -vi) swaps climb and descend roles.
  const auto costs = table_->action_costs(12.0, 300.0, 5.0, -5.0, Advisory::kCoc);
  const auto mirrored = table_->action_costs(12.0, -300.0, -5.0, 5.0, Advisory::kCoc);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kClimb1500)],
              mirrored[static_cast<std::size_t>(Advisory::kDescend1500)], 0.6);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kClimb2500)],
              mirrored[static_cast<std::size_t>(Advisory::kDescend2500)], 0.6);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kCoc)],
              mirrored[static_cast<std::size_t>(Advisory::kCoc)], 0.6);
}

TEST_F(TableTest, AdvisoryPushesAwayFromIntruder) {
  // Intruder 300 ft ABOVE on a converging vertical path at tau = 8 s:
  // descending must be cheaper than climbing into it.
  const auto costs = table_->action_costs(8.0, 300.0, 0.0, -10.0, Advisory::kCoc);
  EXPECT_LT(costs[static_cast<std::size_t>(Advisory::kDescend1500)],
            costs[static_cast<std::size_t>(Advisory::kClimb1500)]);
  // And mirrored: intruder below climbing into us -> climb is cheaper.
  const auto costs2 = table_->action_costs(8.0, -300.0, 0.0, 10.0, Advisory::kCoc);
  EXPECT_LT(costs2[static_cast<std::size_t>(Advisory::kClimb1500)],
            costs2[static_cast<std::size_t>(Advisory::kDescend1500)]);
}

TEST_F(TableTest, ValuesDecreaseWithSeparationAtSmallTau) {
  // At tau = 5 s, being co-altitude must cost at least as much as being
  // widely separated (values of the best action).
  const auto near = table_->action_costs(5.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  const auto far = table_->action_costs(5.0, 900.0, 0.0, 0.0, Advisory::kCoc);
  const double best_near = *std::min_element(near.begin(), near.end());
  const double best_far = *std::min_element(far.begin(), far.end());
  EXPECT_GT(best_near, best_far);
}

TEST_F(TableTest, KeepingAdvisoryCheaperThanReversing) {
  // With an active climb and symmetric geometry, continuing the climb must
  // be cheaper than reversing to a descend (reversal surcharge).
  const auto costs = table_->action_costs(10.0, 0.0, 12.0, 0.0, Advisory::kClimb1500);
  EXPECT_LT(costs[static_cast<std::size_t>(Advisory::kClimb1500)],
            costs[static_cast<std::size_t>(Advisory::kDescend1500)]);
}

TEST_F(TableTest, InterpolationMatchesVertexValues) {
  const auto& grid = table_->grid();
  const auto idx = grid.unflatten(grid.size() / 2);
  const auto p = grid.point(idx);
  const auto costs = table_->action_costs(7.0, p[0], p[1], p[2], Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    const float direct = table_->at(7, grid.flat_index(idx), Advisory::kCoc,
                                    static_cast<Advisory>(a));
    EXPECT_NEAR(costs[a], static_cast<double>(direct), 1e-4);
  }
}

TEST_F(TableTest, TauClampsToHorizon) {
  // Beyond the table horizon the lookup clamps to the last layer.
  const auto at_max = table_->action_costs(static_cast<double>(config().space.tau_max), 0.0, 0.0,
                                           0.0, Advisory::kCoc);
  const auto beyond = table_->action_costs(1e9, 0.0, 0.0, 0.0, Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    EXPECT_DOUBLE_EQ(at_max[a], beyond[a]);
  }
}

TEST_F(TableTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cav_table_test.bin";
  table_->save(path);
  const LogicTable loaded = LogicTable::load(path);
  EXPECT_EQ(loaded.num_entries(), table_->num_entries());
  EXPECT_EQ(loaded.config().space.tau_max, config().space.tau_max);
  EXPECT_EQ(loaded.config().space.h_ft.count(), config().space.h_ft.count());
  EXPECT_DOUBLE_EQ(loaded.config().costs.nmac_cost, config().costs.nmac_cost);
  // Spot-check payload equality.
  for (std::size_t i = 0; i < table_->raw().size(); i += 1009) {
    ASSERT_EQ(loaded.raw()[i], table_->raw()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(TableTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/cav_table_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a table", f);
    std::fclose(f);
  }
  EXPECT_THROW(LogicTable::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(LogicTable::load("/definitely/missing/file.bin"), std::runtime_error);
}

TEST(TableSolver, ParallelMatchesSerial) {
  const AcasXuConfig config = AcasXuConfig::coarse();
  const LogicTable serial = solve_logic_table(config);
  ThreadPool pool(4);
  const LogicTable parallel = solve_logic_table(config, &pool);
  ASSERT_EQ(serial.raw().size(), parallel.raw().size());
  for (std::size_t i = 0; i < serial.raw().size(); ++i) {
    ASSERT_EQ(serial.raw()[i], parallel.raw()[i]) << "entry " << i;
  }
}

TEST(TableSolver, StencilsMatchReferenceSolverExactly) {
  // The precompiled stencils preserve the reference kernel's two-level
  // accumulation order (inner interpolation sum, pair-weighted outer sum),
  // so the fast path must reproduce the legacy table bit for bit.
  const AcasXuConfig config = AcasXuConfig::coarse();
  const LogicTable stencil = solve_logic_table(config);
  const LogicTable reference =
      solve_logic_table(config, nullptr, nullptr, SolverMode::kReference);
  ASSERT_EQ(stencil.raw().size(), reference.raw().size());
  for (std::size_t i = 0; i < stencil.raw().size(); ++i) {
    ASSERT_EQ(stencil.raw()[i], reference.raw()[i]) << "entry " << i;
  }
}

TEST(TableSolver, CompiledModelReproducesSolveExactly) {
  // CompiledAcasModel factors the stencil build out of the solve; with the
  // costs it was compiled under it must reproduce solve_logic_table bit
  // for bit (same kernels, same accumulation order).
  const AcasXuConfig config = AcasXuConfig::coarse();
  const CompiledAcasModel model(config);
  const LogicTable fresh = solve_logic_table(config);
  const LogicTable reused = model.solve();
  ASSERT_EQ(fresh.raw().size(), reused.raw().size());
  for (std::size_t i = 0; i < fresh.raw().size(); ++i) {
    ASSERT_EQ(fresh.raw()[i], reused.raw()[i]) << "entry " << i;
  }
  EXPECT_GT(model.stencil_entries(), 0U);
  EXPECT_GT(model.stencil_build_seconds(), 0.0);
}

TEST(TableSolver, CompiledModelCostRevisionMatchesFreshSolve) {
  // A cost-only revision re-solved on the precompiled stencils must equal
  // a from-scratch solve of the revised config, bit for bit — the ACAS
  // analogue of CompiledMdp::refresh_costs.
  const AcasXuConfig config = AcasXuConfig::coarse();
  const CompiledAcasModel model(config);

  CostModel revised = config.costs;
  revised.nmac_cost = 20000.0;
  revised.maneuver_cost = 400.0;
  revised.level_reward = 10.0;
  AcasXuConfig revised_config = config;
  revised_config.costs = revised;

  const LogicTable fresh = solve_logic_table(revised_config);
  SolveStats stats;
  const LogicTable reused = model.solve(revised, nullptr, &stats);
  ASSERT_EQ(fresh.raw().size(), reused.raw().size());
  for (std::size_t i = 0; i < fresh.raw().size(); ++i) {
    ASSERT_EQ(fresh.raw()[i], reused.raw()[i]) << "entry " << i;
  }
  // The revised costs ride along on the returned table's config, and no
  // stencil build happened during the revision solve.
  EXPECT_DOUBLE_EQ(reused.config().costs.maneuver_cost, 400.0);
  EXPECT_EQ(stats.stencil_build_seconds, 0.0);
  EXPECT_EQ(stats.stencil_entries, model.stencil_entries());
}

TEST(TableSolver, StencilStatsReported) {
  SolveStats stats;
  const LogicTable table = solve_logic_table(AcasXuConfig::coarse(), nullptr, &stats);
  // Every non-degenerate (grid point, action) row scatters somewhere.
  EXPECT_GE(stats.stencil_entries, table.num_grid_points() * kNumAdvisories);
  EXPECT_GT(stats.stencil_build_seconds, 0.0);
  EXPECT_LE(stats.stencil_build_seconds, stats.wall_seconds);
}

TEST(TableSolver, StatsReported) {
  SolveStats stats;
  const LogicTable table = solve_logic_table(AcasXuConfig::coarse(), nullptr, &stats);
  EXPECT_GT(stats.states_per_layer, 0U);
  EXPECT_EQ(stats.layers, table.config().space.tau_max + 1);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(TableSolver, ModeledNoiseRaisesResidualRisk) {
  // Ablation-style property: more modeled dynamics noise means a co-
  // altitude collision course at short tau cannot be mitigated as well, so
  // the optimal (best-action) expected cost rises monotonically with sigma.
  // (Alert *timing* is NOT monotone in sigma — coarse-grid interpolation
  // shifts it, the §IV inaccuracy this suite documents elsewhere.)
  double previous = -1e30;
  for (const double sigma : {1.0, 3.0, 6.0}) {
    AcasXuConfig config = AcasXuConfig::coarse();
    config.dynamics.accel_noise_sigma_fps2 = sigma;
    const LogicTable table = solve_logic_table(config);
    const auto costs = table.action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_GT(best, previous) << "sigma " << sigma;
    previous = best;
  }
}

TEST(TableSolver, AlertingHelpsUnderLowNoise) {
  // With quiet dynamics, maneuvering out of a tau=10 co-altitude collision
  // course must beat staying clear-of-conflict.
  AcasXuConfig config = AcasXuConfig::coarse();
  config.dynamics.accel_noise_sigma_fps2 = 1.0;
  const LogicTable table = solve_logic_table(config);
  const auto costs = table.action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  double best_maneuver = 1e30;
  for (std::size_t a = 1; a < kNumAdvisories; ++a) {
    best_maneuver = std::min(best_maneuver, costs[a]);
  }
  EXPECT_LT(best_maneuver, costs[static_cast<std::size_t>(Advisory::kCoc)]);
}

// ---------------------------------------------------------------------------
// Byte pins: XXH64 of the value bytes each solver path writes.  The
// properties above would survive a change in rounding; these would not.
// They were captured before the pairwise and joint solvers shared one
// stencil compiler, layer sweep and induction loop, and they are also the
// cross-ISA check of the solver tier.  A deliberate change to a table's
// numbers re-pins them and says why.

template <typename Table>
std::uint64_t values_digest(const Table& table) {
  serving::Xxh64 hash;
  hash.update(table.values(), table.num_entries() * sizeof(float));
  return hash.digest();
}

constexpr std::uint64_t kCoarseTableDigest = 0xeac5f2047fc845e8ULL;

TEST_F(TableTest, CoarseTableBytesArePinned) {
  EXPECT_EQ(values_digest(*table_), kCoarseTableDigest);
  ThreadPool pool(4);
  EXPECT_EQ(values_digest(solve_logic_table(config(), &pool)), kCoarseTableDigest);
  EXPECT_EQ(values_digest(solve_logic_table(config(), nullptr, nullptr, SolverMode::kReference)),
            kCoarseTableDigest);
}

// The table every workload serves: 21 x 21 x 21 points, 41 layers.
TEST(TableDigestTest, StandardTableBytesArePinned) {
  ThreadPool pool(4);
  EXPECT_EQ(values_digest(solve_logic_table(AcasXuConfig::standard(), &pool)),
            0x3103045ff4b736d4ULL);
}

TEST(TableDigestTest, CompiledModelCostRevisionBytesArePinned) {
  const CompiledAcasModel model(AcasXuConfig::coarse());
  CostModel revised = AcasXuConfig::coarse().costs;
  revised.nmac_cost = 20000.0;
  revised.maneuver_cost = 400.0;
  revised.level_reward = 10.0;
  EXPECT_EQ(values_digest(model.solve(revised)), 0x9690f82d2af2389cULL);
}

/// The joint tests' small table (test_acasx_joint.cpp): 17 x 5 x 5 x 13
/// points, 6 slabs, 17 layers.
JointConfig tiny_joint_config() {
  JointConfig c;
  c.space.h_ft = UniformAxis(-800.0, 800.0, 17);
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.tau_max = 16;
  return c;
}

TEST(TableDigestTest, JointTableAndRevisionBytesArePinned) {
  ThreadPool pool(4);
  EXPECT_EQ(values_digest(solve_joint_table(tiny_joint_config(), &pool)), 0x3033abba10624a40ULL);
  const JointOfflineSolver solver(tiny_joint_config(), &pool);
  CostModel revised = tiny_joint_config().costs;
  revised.maneuver_cost *= 2.0;
  EXPECT_EQ(values_digest(solver.solve(revised, &pool)), 0x9c5c4c351a87b48aULL);
}

}  // namespace
}  // namespace cav::acasx
