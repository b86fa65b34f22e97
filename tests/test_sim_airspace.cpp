// Airspace-core unit tests: the spatial grid against a brute-force
// reference on random clouds and edge inputs (a far outlier, negative
// lattices on cell boundaries, pairs within ulps of the radius) at every
// LP count, deterministic adjacency, the event queue's ordering contract,
// and the lazily-materialized pair-monitor bank.
#include "sim/airspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/monitors.h"
#include "util/expect.h"
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

/// The contract: every pair with horizontal_distance <= radius, i.e.
/// std::hypot on the coordinate differences (not the squared sum, which
/// disagrees within an ulp or so of the radius).
std::vector<std::pair<int, int>> brute_force_pairs(const std::vector<Vec3>& positions,
                                                   double radius_m) {
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (horizontal_distance(positions[i], positions[j]) <= radius_m) {
        pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return pairs;
}

/// Position `x` moved by `ulps` representable steps.
double nudge(double x, int ulps) {
  for (; ulps != 0; ulps += ulps > 0 ? -1 : 1) {
    x = std::nextafter(x, ulps > 0 ? HUGE_VAL : -HUGE_VAL);
  }
  return x;
}

/// Pairs placed within a few ulps of the radius apart, spread over a
/// lattice of anchors 3 radii apart so they do not interact.
std::vector<Vec3> radius_band_cloud(double radius_m, std::uint64_t seed) {
  RngStream rng = RngStream::derive(seed, "band");
  std::vector<Vec3> positions;
  for (int p = 0; p < 200; ++p) {
    const Vec3 anchor{3.0 * radius_m * (p % 20) - 7.0 * radius_m,
                      3.0 * radius_m * (p / 20) - 5.0 * radius_m, 1000.0};
    const double theta = rng.uniform(0.0, 6.283185307179586);
    Vec3 other{anchor.x + radius_m * std::cos(theta), anchor.y + radius_m * std::sin(theta),
               1000.0};
    for (double* c : {&other.x, &other.y}) *c = nudge(*c, static_cast<int>(rng.uniform_int(-3, 3)));
    positions.push_back(anchor);
    positions.push_back(other);
  }
  return positions;
}

/// Inputs beyond uniform clouds: an outlier that forces the grid to
/// coarsen, all-negative lattices with points on cell boundaries (spacing
/// the radius, and the grid's cell of radius·(1 + 2^-12)), and pairs
/// within a few ulps of the radius.
std::vector<std::vector<Vec3>> grid_inputs(double radius_m, std::uint64_t seed) {
  std::vector<std::vector<Vec3>> inputs;
  inputs.push_back(random_cloud(120, 10000.0, seed));
  inputs.push_back(random_cloud(120, 10000.0, seed));
  inputs.back().push_back({1e7, -1e7, 1000.0});
  const double cell = radius_m * (1.0 + 1.0 / 4096.0);
  for (const auto& [ax, ay] : {std::pair{radius_m, radius_m}, std::pair{cell, radius_m},
                               std::pair{0.5 * radius_m, cell}}) {
    std::vector<Vec3> lattice;
    for (int k = 0; k < 10; ++k) {
      for (int m = 0; m < 10; ++m) lattice.push_back({-ax * (k + 1), -ay * (m + 1), 1000.0});
    }
    inputs.push_back(std::move(lattice));
  }
  inputs.push_back(radius_band_cloud(radius_m, seed));
  return inputs;
}

/// Pairs (2p, 2p + 1) of a radius_band_cloud that dx² + dy² <= r²
/// classifies differently from the contract.
int squared_test_disagreements(const std::vector<Vec3>& positions, double radius_m) {
  int disagreements = 0;
  for (std::size_t p = 0; p + 1 < positions.size(); p += 2) {
    const double dx = positions[p].x - positions[p + 1].x;
    const double dy = positions[p].y - positions[p + 1].y;
    const bool squared = dx * dx + dy * dy <= radius_m * radius_m;
    disagreements += squared != (horizontal_distance(positions[p], positions[p + 1]) <= radius_m);
  }
  return disagreements;
}

TEST(SpatialHashGrid, MatchesBruteForceOnRandomClouds) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double radius : {500.0, 2000.0, 8000.0}) {
      const auto inputs = grid_inputs(radius, seed);
      for (std::size_t c = 0; c < inputs.size(); ++c) {
        const auto& positions = inputs[c];
        SpatialHashGrid grid;
        grid.build(positions, radius);
        EXPECT_LE(grid.num_cells(), 4 * positions.size() + SpatialHashGrid::kCellSlack)
            << "seed " << seed << " radius " << radius << " input " << c;
        std::vector<std::pair<int, int>> pairs;
        grid.collect_near_pairs(positions, radius, &pairs);
        EXPECT_EQ(pairs, brute_force_pairs(positions, radius))
            << "seed " << seed << " radius " << radius << " input " << c;
      }
      // The band cloud (last input) guards the hypot fallback only if the
      // squared test gets some of its pairs wrong.
      EXPECT_GT(squared_test_disagreements(inputs.back(), radius), 0)
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
  // Every LP count collects the brute-force pair list and the adjacency it
  // implies, on uniform clouds and on the grid's edge inputs, and on
  // fleets of K = 2 ... kDirectPairsMaxAgents + 1 cut from the lattices
  // and the ulp-band cloud, so both the direct loop and the grid run.
  ThreadPool pool(3);
  std::vector<std::vector<Vec3>> inputs = grid_inputs(2000.0, 11);
  const std::size_t whole = inputs.size();
  for (std::size_t k = 2; k <= Airspace::kDirectPairsMaxAgents + 1; ++k) {
    for (std::size_t c = whole - 4; c < whole; ++c) {  // three lattices, the band cloud
      inputs.emplace_back(inputs[c].begin(), inputs[c].begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  inputs.insert(inputs.begin(), random_cloud(60, 5000.0, 11));
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    const auto& positions = inputs[c];
    const auto pairs = brute_force_pairs(positions, 2000.0);
    std::vector<std::vector<int>> expected(positions.size());
    for (const auto& [i, j] : pairs) {
      expected[static_cast<std::size_t>(i)].push_back(j);
      expected[static_cast<std::size_t>(j)].push_back(i);
    }
    for (auto& adj : expected) std::sort(adj.begin(), adj.end());
    for (int num_lps = 1; num_lps <= 5; ++num_lps) {
      AirspaceConfig config;
      config.interaction_radius_m = 2000.0;
      config.parallel = {num_lps, num_lps > 1 ? &pool : nullptr};
      Airspace airspace(config, positions.size());
      airspace.rebuild(positions);
      EXPECT_EQ(airspace.near_pairs(), pairs) << "input " << c << " lps " << num_lps;
      for (std::size_t i = 0; i < positions.size(); ++i) {
        EXPECT_EQ(airspace.neighbors_of(i), expected[i])
            << "input " << c << " lps " << num_lps << " agent " << i;
      }
    }
  }
}

TEST(Airspace, RejectsNonFinitePositionsWithAndWithoutTheGrid) {
  AirspaceConfig config;
  config.interaction_radius_m = 1000.0;
  for (const std::size_t k : {std::size_t{2}, Airspace::kDirectPairsMaxAgents + 1}) {
    std::vector<Vec3> positions = random_cloud(k, 5000.0, 3);
    Airspace airspace(config, k);
    airspace.rebuild(positions);
    positions[k - 1].y = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(airspace.rebuild(positions), ContractViolation) << "K " << k;
    positions[k - 1].y = HUGE_VAL;
    EXPECT_THROW(airspace.rebuild(positions), ContractViolation) << "K " << k;
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

/// Every field a pair's monitors report, in both banks, for each pair.
void expect_same_monitors(const PairwiseMonitors& got, const PairwiseMonitors& want,
                          const std::string& context) {
  ASSERT_EQ(got.num_pairs(), want.num_pairs()) << context;
  for (std::size_t p = 0; p < want.num_pairs(); ++p) {
    const ProximityReport& g = got.proximity_at(p).report();
    const ProximityReport& w = want.proximity_at(p).report();
    EXPECT_EQ(got.pair_agents(p), want.pair_agents(p)) << context << " pair " << p;
    EXPECT_EQ(g.min_distance_m, w.min_distance_m) << context << " pair " << p;
    EXPECT_EQ(g.min_horizontal_m, w.min_horizontal_m) << context << " pair " << p;
    EXPECT_EQ(g.min_vertical_m, w.min_vertical_m) << context << " pair " << p;
    EXPECT_EQ(g.time_of_min_distance_s, w.time_of_min_distance_s) << context << " pair " << p;
    EXPECT_EQ(got.accidents_at(p).nmac(), want.accidents_at(p).nmac()) << context << " pair " << p;
    EXPECT_EQ(got.accidents_at(p).nmac_time_s(), want.accidents_at(p).nmac_time_s())
        << context << " pair " << p;
    EXPECT_EQ(got.accidents_at(p).hard_collision(), want.accidents_at(p).hard_collision())
        << context << " pair " << p;
  }
}

/// Replay inputs for pairs (2c, 2c + 1) that stress the squared-distance
/// replay: rows[g][agent] is every aircraft's position after global
/// substep g.  Case c is of kind c % 6:
///   0  random separations;
///   1  horizontal separation within ±3 ulps of the NMAC radius, vertical
///      inside the cylinder (also a horizontal near-tie on every sample);
///   2  3-D separation within ±2 ulps of the collision radius;
///   3  exact ties at different substeps, and near-ties an ulp apart;
///   4  a row that converges on every substep of the run;
///   5  a constant-range orbit: every q within a few ulps of the others.
std::vector<std::vector<Vec3>> replay_rows(const AccidentConfig& accident, std::size_t cases,
                                           std::size_t substeps, std::uint64_t seed) {
  std::vector<std::vector<Vec3>> rows(substeps, std::vector<Vec3>(2 * cases));
  for (std::size_t c = 0; c < cases; ++c) {
    RngStream rng = RngStream::derive(seed, "replay", c);
    // Kind 3's separation: multiples of 1/64 m, so every scaled copy and
    // every difference below is exact.
    const Vec3 tie{std::round(rng.uniform(40.0, 200.0) * 64.0) / 64.0,
                   std::round(rng.uniform(-200.0, 200.0) * 64.0) / 64.0,
                   std::round(rng.uniform(-60.0, 60.0) * 64.0) / 64.0};
    const Vec3 heading{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.1, 0.1)};
    for (std::size_t g = 0; g < substeps; ++g) {
      Vec3 a{0.0, 0.0, 1000.0};
      Vec3 b;
      const double theta = rng.uniform(0.0, 6.283185307179586);
      switch (c % 6) {
        case 0:
          a = {rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0), rng.uniform(-40.0, 40.0)};
          b = {rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0), rng.uniform(-40.0, 40.0)};
          break;
        case 1: {
          const double r = accident.nmac_horizontal_m;
          b = {nudge(r * std::cos(theta), static_cast<int>(rng.uniform_int(-3, 3))),
               nudge(r * std::sin(theta), static_cast<int>(rng.uniform_int(-3, 3))),
               1000.0 + rng.uniform(-25.0, 25.0)};
          break;
        }
        case 2: {
          // Three radii out on most substeps, so a period's closest sample
          // is often one of the few within ulps of the radius.
          const double r = accident.collision_radius_m * (rng.chance(0.2) ? 1.0 : 3.0);
          const double phi = rng.uniform(-1.5, 1.5);
          a = {};
          b = {nudge(r * std::cos(phi) * std::cos(theta), static_cast<int>(rng.uniform_int(-2, 2))),
               nudge(r * std::cos(phi) * std::sin(theta), static_cast<int>(rng.uniform_int(-2, 2))),
               nudge(r * std::sin(phi), static_cast<int>(rng.uniform_int(-2, 2)))};
          break;
        }
        case 3: {
          // Scale 1 (the minimum) on about half the substeps; some of
          // those copies move b by one ulp.
          const double scales[] = {1.0, 1.0, 1.25, 1.5, 2.0};
          const double f = scales[rng.uniform_int(0, 4)];
          a = {100.0 * static_cast<double>(g % 4), 50.0, 1000.0};
          b = a + tie * f;
          if (f == 1.0 && rng.chance(0.3)) b.x = nudge(b.x, rng.chance(0.5) ? 1 : -1);
          break;
        }
        case 4: {
          const double left = 1.0 - static_cast<double>(g) / static_cast<double>(substeps);
          b = a + heading * (900.0 * left);
          break;
        }
        default:
          b = {nudge(300.0 * std::cos(theta), static_cast<int>(rng.uniform_int(-2, 2))),
               nudge(300.0 * std::sin(theta), static_cast<int>(rng.uniform_int(-2, 2))), 1010.0};
          break;
      }
      rows[g][2 * c] = a;
      rows[g][2 * c + 1] = b;
    }
  }
  return rows;
}

TEST(PairwiseMonitors, UpdateSeriesMatchesSequentialReplayForAnyPartition) {
  // The LP hand-off seam and the squared-distance replay: replaying
  // periods of snapshots through update_series — for any (num_lps, pool)
  // partition of the slots — must leave every monitor field exactly as the
  // per-substep update() calls do, period after period.
  const std::size_t cases = 300;
  const std::size_t num_agents = 2 * cases;
  const std::size_t n_rows = 10;
  const std::size_t periods = 3;
  // A collision radius at which q < r² and sqrt(q) < r can disagree (the
  // double below fl(30.1²)); at 30 m they never do.
  const AccidentConfig accident{.collision_radius_m = 30.1};
  const auto rows = replay_rows(accident, cases, n_rows * periods, 5);
  std::vector<std::pair<int, int>> pairs;
  for (std::size_t c = 0; c < cases; ++c) {
    pairs.emplace_back(static_cast<int>(2 * c), static_cast<int>(2 * c + 1));
  }
  // A few cross pairs too, so slots are not all neighbours in memory.
  for (std::size_t c = 0; c + 3 < num_agents; c += 37) {
    pairs.emplace_back(static_cast<int>(c), static_cast<int>(c + 3));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // The band kinds bite only if the squared tests misjudge some samples.
  int nmac_misjudged = 0;
  int collision_misjudged = 0;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < cases; ++c) {
      const Vec3 d = row[2 * c] - row[2 * c + 1];
      const double q2 = d.x * d.x + d.y * d.y;
      const double h = accident.nmac_horizontal_m;
      const double r = accident.collision_radius_m;
      nmac_misjudged += (q2 < h * h) != (std::hypot(d.x, d.y) < h);
      collision_misjudged += (d.norm_sq() < r * r) != (d.norm() < r);
    }
  }
  EXPECT_GT(nmac_misjudged, 0);
  EXPECT_GT(collision_misjudged, 0);

  PairwiseMonitors reference(num_agents, accident);
  reference.set_active_pairs(pairs);
  std::vector<double> times(n_rows * periods);
  for (std::size_t g = 0; g < times.size(); ++g) {
    times[g] = 0.1 * static_cast<double>(g + 1);
    reference.update(times[g], rows[g]);
  }

  ThreadPool pool(3);
  for (const int num_lps : {1, 2, 5}) {
    PairwiseMonitors partitioned(num_agents, accident);
    partitioned.set_active_pairs(pairs);
    for (std::size_t period = 0; period < periods; ++period) {
      // update_series reads one period's snapshots agent-major:
      // [agent][substep].
      const std::size_t first = period * n_rows;
      std::vector<Vec3> snapshots(num_agents * n_rows);
      for (std::size_t s = 0; s < n_rows; ++s) {
        for (std::size_t a = 0; a < num_agents; ++a) {
          snapshots[a * n_rows + s] = rows[first + s][a];
        }
      }
      const std::vector<double> period_times(times.begin() + static_cast<std::ptrdiff_t>(first),
                                             times.begin() +
                                                 static_cast<std::ptrdiff_t>(first + n_rows));
      partitioned.update_series(period_times, snapshots, n_rows, num_lps,
                                num_lps > 1 ? &pool : nullptr);
    }
    expect_same_monitors(partitioned, reference, "lps " + std::to_string(num_lps));
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
