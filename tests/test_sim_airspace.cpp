// Airspace-core unit tests: the spatial hash grid against a brute-force
// reference on random clouds, deterministic adjacency, the event queue's
// ordering contract, and the lazily-materialized pair-monitor bank.
#include "sim/airspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/monitors.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/vec3.h"

namespace cav::sim {
namespace {

std::vector<Vec3> random_cloud(std::size_t n, double extent_m, std::uint64_t seed) {
  RngStream rng = RngStream::derive(seed, "cloud");
  std::vector<Vec3> positions(n);
  for (auto& p : positions) {
    p = {rng.uniform(-extent_m, extent_m), rng.uniform(-extent_m, extent_m),
         rng.uniform(900.0, 1100.0)};
  }
  return positions;
}

std::vector<std::pair<int, int>> brute_force_pairs(const std::vector<Vec3>& positions,
                                                   double radius_m) {
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const double dx = positions[i].x - positions[j].x;
      const double dy = positions[i].y - positions[j].y;
      if (dx * dx + dy * dy <= radius_m * radius_m) {
        pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return pairs;
}

TEST(SpatialHashGrid, MatchesBruteForceOnRandomClouds) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double radius : {500.0, 2000.0, 8000.0}) {
      const auto positions = random_cloud(120, 10000.0, seed);
      SpatialHashGrid grid;
      grid.build(positions, radius);
      std::vector<std::pair<int, int>> pairs;
      grid.collect_near_pairs(positions, radius, &pairs);
      EXPECT_EQ(pairs, brute_force_pairs(positions, radius))
          << "seed " << seed << " radius " << radius;
    }
  }
}

TEST(SpatialHashGrid, PairsAreLexicographic) {
  const auto positions = random_cloud(80, 3000.0, 7);
  SpatialHashGrid grid;
  grid.build(positions, 1500.0);
  std::vector<std::pair<int, int>> pairs;
  grid.collect_near_pairs(positions, 1500.0, &pairs);
  ASSERT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  for (const auto& [i, j] : pairs) EXPECT_LT(i, j);
}

TEST(SpatialHashGrid, RadiusBoundaryIsInclusive) {
  // Exactly radius apart: <= keeps the pair (the dense engine has no
  // boundary at all, so ties erring toward inclusion is the safe side).
  const std::vector<Vec3> positions = {{0.0, 0.0, 1000.0}, {1000.0, 0.0, 1000.0}};
  SpatialHashGrid grid;
  grid.build(positions, 1000.0);
  std::vector<std::pair<int, int>> pairs;
  grid.collect_near_pairs(positions, 1000.0, &pairs);
  ASSERT_EQ(pairs.size(), 1U);
  EXPECT_EQ(pairs[0], std::make_pair(0, 1));
}

TEST(SpatialHashGrid, VerticalSeparationDoesNotExcludePairs) {
  // The radius is horizontal-only: ADS-B reception does not care about
  // altitude, and the vertical NMAC band is far smaller than any radius.
  const std::vector<Vec3> positions = {{0.0, 0.0, 0.0}, {100.0, 0.0, 5000.0}};
  SpatialHashGrid grid;
  grid.build(positions, 1000.0);
  std::vector<std::pair<int, int>> pairs;
  grid.collect_near_pairs(positions, 1000.0, &pairs);
  EXPECT_EQ(pairs.size(), 1U);
}

TEST(Airspace, AllPairsModeListsEveryPairWithoutPositions) {
  Airspace airspace(AirspaceConfig::legacy(), 5);
  airspace.rebuild(std::vector<Vec3>(5));
  EXPECT_EQ(airspace.near_pairs().size(), 10U);
  EXPECT_TRUE(std::is_sorted(airspace.near_pairs().begin(), airspace.near_pairs().end()));
  EXPECT_EQ(airspace.neighbors_of(2), (std::vector<int>{0, 1, 3, 4}));
}

TEST(Airspace, GridAdjacencyMatchesPairList) {
  AirspaceConfig config;
  config.interaction_radius_m = 2000.0;
  const auto positions = random_cloud(60, 5000.0, 11);
  Airspace airspace(config, positions.size());
  airspace.rebuild(positions);

  std::vector<std::vector<int>> expected(positions.size());
  for (const auto& [i, j] : airspace.near_pairs()) {
    expected[static_cast<std::size_t>(i)].push_back(j);
    expected[static_cast<std::size_t>(j)].push_back(i);
  }
  for (auto& adj : expected) std::sort(adj.begin(), adj.end());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(airspace.neighbors_of(i), expected[i]) << i;
  }
}

TEST(Airspace, RebuildReflectsMotion) {
  AirspaceConfig config;
  config.interaction_radius_m = 1000.0;
  Airspace airspace(config, 2);
  airspace.rebuild({{0.0, 0.0, 0.0}, {5000.0, 0.0, 0.0}});
  EXPECT_TRUE(airspace.near_pairs().empty());
  EXPECT_TRUE(airspace.neighbors_of(0).empty());
  airspace.rebuild({{0.0, 0.0, 0.0}, {800.0, 0.0, 0.0}});
  EXPECT_EQ(airspace.near_pairs().size(), 1U);
  EXPECT_EQ(airspace.neighbors_of(0), std::vector<int>{1});
}

TEST(EventQueue, OrdersByTimeTypeAgentSeq) {
  EventQueue queue;
  queue.push(10.0, EventType::kCommsBlackoutEnd, 1);
  queue.push(5.0, EventType::kCommsBlackoutStart, 3);
  queue.push(10.0, EventType::kCommsBlackoutStart, 2);
  queue.push(10.0, EventType::kCommsBlackoutStart, 0);

  EXPECT_FALSE(queue.has_due(4.9));
  ASSERT_TRUE(queue.has_due(5.0));
  EXPECT_EQ(queue.pop().agent, 3);
  EXPECT_FALSE(queue.has_due(9.0));
  ASSERT_TRUE(queue.has_due(30.0));
  // Same time: starts before ends, lower agent first.
  Event e = queue.pop();
  EXPECT_EQ(e.type, EventType::kCommsBlackoutStart);
  EXPECT_EQ(e.agent, 0);
  EXPECT_EQ(queue.pop().agent, 2);
  EXPECT_EQ(queue.pop().type, EventType::kCommsBlackoutEnd);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TotalOrderUnderCoincidentTimers) {
  // Property: draining yields exactly the pushed multiset, sorted by the
  // full (t, type, agent, seq) key — coincident (t, type, agent) events
  // are a valid input (two identical blackout windows) and must come out
  // in insertion order, making the order total, not just a partial tie.
  RngStream rng = RngStream::derive(99, "events");
  EventQueue queue;
  std::vector<std::tuple<double, int, int, int>> expected;  // (t, type, agent, insertion)
  for (int n = 0; n < 200; ++n) {
    const double t = static_cast<double>(rng.uniform_int(0, 9));  // heavy t collisions
    const auto type =
        rng.uniform_int(0, 1) == 0 ? EventType::kCommsBlackoutStart : EventType::kCommsBlackoutEnd;
    const int agent = static_cast<int>(rng.uniform_int(0, 3));
    queue.push(t, type, agent);
    expected.emplace_back(t, static_cast<int>(type), agent, n);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return std::make_tuple(std::get<0>(a), std::get<1>(a), std::get<2>(a)) <
                            std::make_tuple(std::get<0>(b), std::get<1>(b), std::get<2>(b));
                   });
  for (const auto& [t, type, agent, insertion] : expected) {
    ASSERT_TRUE(queue.has_due(t));
    const Event e = queue.pop();
    EXPECT_EQ(e.t_s, t);
    EXPECT_EQ(static_cast<int>(e.type), type);
    EXPECT_EQ(e.agent, agent);
    EXPECT_EQ(e.seq, static_cast<std::uint64_t>(insertion));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ZeroLengthWindowEdgesCancelWithinOneDrain) {
  // A zero-length blackout window [t, t] — if a caller ever schedules one
  // — drains start-before-end at the same decision time, so the depth
  // counter returns to zero inside the drain and no cycle observes the
  // blackout.  (Simulation skips scheduling such windows entirely; this
  // pins the queue-level safety net that makes either choice equivalent.)
  EventQueue queue;
  queue.push(4.0, EventType::kCommsBlackoutEnd, 0);  // end pushed FIRST
  queue.push(4.0, EventType::kCommsBlackoutStart, 0);
  int depth = 0;
  bool observed = false;
  while (queue.has_due(4.0)) {
    const Event e = queue.pop();
    depth += e.type == EventType::kCommsBlackoutStart ? 1 : -1;
    observed = observed || depth < 0;  // an end before its start would go negative
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(observed) << "start must drain before end at the same time";
}

TEST(EventQueue, InsertionDuringDrainKeepsTheKeyOrder) {
  // Events inserted while a drain is in progress (a future event source
  // scheduling follow-ups) join the order at their key: due ones surface
  // in this very drain, later ones wait.
  EventQueue queue;
  queue.push(1.0, EventType::kCommsBlackoutStart, 0);
  queue.push(3.0, EventType::kCommsBlackoutStart, 1);
  std::vector<std::pair<double, int>> drained;
  bool injected = false;
  while (queue.has_due(3.0)) {
    const Event e = queue.pop();
    drained.emplace_back(e.t_s, e.agent);
    if (!injected) {
      injected = true;
      queue.push(2.0, EventType::kCommsBlackoutStart, 2);  // due now, t between
      queue.push(9.0, EventType::kCommsBlackoutStart, 3);  // not due
    }
  }
  EXPECT_EQ(drained,
            (std::vector<std::pair<double, int>>{{1.0, 0}, {2.0, 2}, {3.0, 1}}));
  ASSERT_EQ(queue.size(), 1U);
  EXPECT_FALSE(queue.has_due(8.9));
  EXPECT_EQ(queue.pop().agent, 3);
}

TEST(PairwiseMonitors, LazyMaterializationFollowsTheActiveSet) {
  PairwiseMonitors monitors(4, AccidentConfig{});
  EXPECT_EQ(monitors.num_pairs(), 0U);

  const std::vector<Vec3> positions = {
      {0.0, 0.0, 0.0}, {100.0, 0.0, 0.0}, {200.0, 0.0, 0.0}, {300.0, 0.0, 0.0}};
  EXPECT_EQ(monitors.set_active_pairs({{0, 1}, {2, 3}}), 2U);
  monitors.update_new(0.0, positions, 2);
  EXPECT_EQ(monitors.num_pairs(), 2U);
  EXPECT_TRUE(monitors.monitored(0, 1));
  EXPECT_FALSE(monitors.monitored(0, 2));

  // A pair dropping out keeps its slot and minima but stops updating.
  EXPECT_EQ(monitors.set_active_pairs({{0, 1}}), 0U);
  EXPECT_EQ(monitors.num_pairs(), 2U);
  EXPECT_EQ(monitors.num_active_pairs(), 1U);
  const double frozen = monitors.proximity(2, 3).report().min_distance_m;
  std::vector<Vec3> closer = positions;
  closer[1] = {50.0, 0.0, 0.0};   // active pair tightens
  closer[3] = positions[2];       // inactive pair would read 0 if updated
  monitors.update(1.0, closer);
  EXPECT_EQ(monitors.proximity(2, 3).report().min_distance_m, frozen);
  EXPECT_EQ(monitors.proximity(0, 1).report().min_distance_m, 50.0);
}

TEST(PairwiseMonitors, SortedViewIsStableAcrossActivationChronology) {
  // Materialize pairs out of lexicographic order; the (i, j)-sorted view
  // used for result assembly must not depend on activation chronology.
  PairwiseMonitors monitors(4, AccidentConfig{});
  const std::vector<Vec3> positions(4);
  monitors.set_active_pairs({{1, 3}});
  monitors.update_new(0.0, positions, 1);
  monitors.set_active_pairs({{0, 2}, {1, 3}});
  monitors.update_new(1.0, positions, 1);
  ASSERT_EQ(monitors.num_pairs(), 2U);
  EXPECT_EQ(monitors.pair_agents(0), std::make_pair(std::size_t{0}, std::size_t{2}));
  EXPECT_EQ(monitors.pair_agents(1), std::make_pair(std::size_t{1}, std::size_t{3}));
}

TEST(PairwiseMonitors, ChurnReactivationResumesTheFrozenSlot) {
  // activate -> drop -> re-activate: the pair keeps one slot for life, its
  // frozen minima resume (not reset), and re-activation is not a "new"
  // materialization — so no spurious activation-time update is applied.
  PairwiseMonitors monitors(3, AccidentConfig{});
  std::vector<Vec3> positions = {{0.0, 0.0, 0.0}, {100.0, 0.0, 0.0}, {0.0, 5000.0, 0.0}};
  EXPECT_EQ(monitors.set_active_pairs({{0, 1}}), 1U);
  monitors.update_new(0.0, positions, 1);
  EXPECT_EQ(monitors.proximity(0, 1).report().min_distance_m, 100.0);

  // Drop the pair; its would-be minimum tightens while unobserved.
  EXPECT_EQ(monitors.set_active_pairs({}), 0U);
  positions[1] = {40.0, 0.0, 0.0};
  monitors.update(1.0, positions);
  EXPECT_EQ(monitors.proximity(0, 1).report().min_distance_m, 100.0);

  // Re-activation reuses the slot (0 fresh) and resumes from the frozen
  // minima at the next update.
  EXPECT_EQ(monitors.set_active_pairs({{0, 1}}), 0U);
  EXPECT_EQ(monitors.num_pairs(), 1U);
  positions[1] = {70.0, 0.0, 0.0};
  monitors.update(2.0, positions);
  const ProximityReport report = monitors.proximity(0, 1).report();
  EXPECT_EQ(report.min_distance_m, 70.0);
  EXPECT_EQ(report.time_of_min_distance_s, 2.0);
}

TEST(PairwiseMonitors, UpdateSeriesMatchesSequentialReplayForAnyPartition) {
  // The LP hand-off seam: replaying a period of snapshots through
  // update_series — for any (num_lps, pool) partition of the slots — must
  // equal the sequential per-substep update() calls, and the (i, j)-sorted
  // assembly view must be identical afterwards.
  const std::size_t num_agents = 12;
  RngStream rng = RngStream::derive(5, "series");
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i + 1 < num_agents; i += 2) {
    pairs.emplace_back(static_cast<int>(i), static_cast<int>(i + 1));
    pairs.emplace_back(static_cast<int>(i), static_cast<int>(i + 2 < num_agents ? i + 2 : 0));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  const std::size_t n_rows = 10;
  std::vector<double> times(n_rows);
  std::vector<std::vector<Vec3>> rows(n_rows, std::vector<Vec3>(num_agents));
  for (std::size_t s = 0; s < n_rows; ++s) {
    times[s] = 0.1 * static_cast<double>(s + 1);
    for (auto& p : rows[s]) {
      p = {rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0), rng.uniform(-40.0, 40.0)};
    }
  }

  PairwiseMonitors reference(num_agents, AccidentConfig{});
  reference.set_active_pairs(pairs);
  for (std::size_t s = 0; s < n_rows; ++s) reference.update(times[s], rows[s]);

  ThreadPool pool(3);
  for (const int num_lps : {1, 2, 5}) {
    PairwiseMonitors partitioned(num_agents, AccidentConfig{});
    partitioned.set_active_pairs(pairs);
    partitioned.update_series(times, rows, n_rows, num_lps, num_lps > 1 ? &pool : nullptr);
    ASSERT_EQ(partitioned.num_pairs(), reference.num_pairs()) << num_lps;
    for (std::size_t p = 0; p < reference.num_pairs(); ++p) {
      EXPECT_EQ(partitioned.pair_agents(p), reference.pair_agents(p)) << num_lps << " " << p;
      EXPECT_EQ(partitioned.proximity_at(p).report().min_distance_m,
                reference.proximity_at(p).report().min_distance_m)
          << num_lps << " " << p;
      EXPECT_EQ(partitioned.proximity_at(p).report().time_of_min_distance_s,
                reference.proximity_at(p).report().time_of_min_distance_s)
          << num_lps << " " << p;
      EXPECT_EQ(partitioned.accidents_at(p).nmac(), reference.accidents_at(p).nmac())
          << num_lps << " " << p;
      EXPECT_EQ(partitioned.accidents_at(p).nmac_time_s(),
                reference.accidents_at(p).nmac_time_s())
          << num_lps << " " << p;
    }
  }
}

TEST(PairwiseMonitors, AggregatesSpanOnlyMaterializedPairs) {
  PairwiseMonitors monitors(3, AccidentConfig{});
  const std::vector<Vec3> positions = {{0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}, {5000.0, 0.0, 0.0}};
  monitors.set_active_pairs({{0, 1}});
  monitors.update_new(0.0, positions, 1);
  const ProximityReport report = monitors.aggregate_proximity();
  EXPECT_DOUBLE_EQ(report.min_distance_m, 10.0);
  EXPECT_TRUE(monitors.any_nmac());  // 10 m separation is inside the cylinder
  EXPECT_EQ(monitors.earliest_nmac_time_s(), 0.0);
}

}  // namespace
}  // namespace cav::sim
