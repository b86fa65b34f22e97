// Statistical-equivalence gate for the random streams (slow tier: coarse
// pairwise + joint table solves, then 3 x 1200 converging-ring runs).
//
// The library's draws were once std::mt19937_64 with the standard library's
// distributions, then util/rng.h's xoshiro256++ with in-repo distributions
// and polar-method Gaussians; its Gaussians are now a ziggurat.  Per-seed
// outcomes changed on purpose each time, but the rates must not: each
// threat policy's own-NMAC and alerted-encounter counts over the ring's
// 1200 paired seeds must have a 99.9% Wilson interval that overlaps the one
// from each previous generator, measured with this same loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <memory>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace cav::sim {
namespace {

constexpr std::size_t kSeeds = 1200;

/// Two-sided 99.9% normal quantile.
constexpr double kZ999 = 3.2905267314919255;

struct RingCounts {
  std::size_t own_nmacs = 0;
  std::size_t alerted = 0;
};

RingCounts run_ring(const scenarios::Scenario& ring, ThreatPolicy policy,
                    const CasFactory& factory, ThreadPool& pool) {
  std::atomic<std::size_t> nmacs{0};
  std::atomic<std::size_t> alerted{0};
  pool.parallel_for(kSeeds, [&](std::size_t i) {
    SimConfig config;  // default noise: identical traffic across policies
    config.threat_policy = policy;
    const SimResult r = scenarios::run_scenario(ring, config, factory, factory, i + 1);
    if (r.own_nmac()) ++nmacs;
    if (r.agents[0].ever_alerted) ++alerted;
  });
  return {nmacs.load(), alerted.load()};
}

bool intervals_overlap(std::size_t hits, std::size_t ref_hits) {
  const Interval now = wilson_interval(hits, kSeeds, kZ999);
  const Interval ref = wilson_interval(ref_hits, kSeeds, kZ999);
  return now.lo <= ref.hi && ref.lo <= now.hi;
}

TEST(RngEquivalenceTest, ConvergingRingRatesMatchThePreviousGenerator) {
  ThreadPool pool;
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool));
  const auto joint = std::make_shared<const acasx::JointLogicTable>(
      acasx::solve_joint_table(acasx::JointConfig::coarse(), &pool));
  const scenarios::Scenario ring = scenarios::converging_ring(4);

  struct Case {
    const char* name;
    ThreatPolicy policy;
    CasFactory factory;
    RingCounts previous;  // mt19937_64 + standard-library distributions
    RingCounts polar;     // xoshiro256++ + polar-method Gaussians
  };
  const Case cases[] = {
      {"nearest", ThreatPolicy::kNearest, AcasXuCas::factory(table), {1014, 1174}, {1010, 1178}},
      {"cost-fused", ThreatPolicy::kCostFused, AcasXuCas::factory(table), {628, 1178},
       {637, 1172}},
      {"joint", ThreatPolicy::kJointTable, AcasXuCas::factory(table, {.joint = joint}),
       {379, 1154}, {377, 1168}},
  };
  for (const Case& c : cases) {
    const RingCounts now = run_ring(ring, c.policy, c.factory, pool);
    for (const RingCounts& ref : {c.previous, c.polar}) {
      EXPECT_TRUE(intervals_overlap(now.own_nmacs, ref.own_nmacs))
          << c.name << ": own-NMACs " << now.own_nmacs << " vs " << ref.own_nmacs;
      EXPECT_TRUE(intervals_overlap(now.alerted, ref.alerted))
          << c.name << ": alerted " << now.alerted << " vs " << ref.alerted;
    }
  }
}

}  // namespace
}  // namespace cav::sim
