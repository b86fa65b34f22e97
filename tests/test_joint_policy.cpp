// The joint-threat table's acceptance gate (slow tier: full coarse joint
// solve + 180 ring simulations).  PR 4 closed part of the converging-ring
// gap with cost fusion (45 -> 38 own-NMACs over 60 paired seeds); the
// joint table must strictly beat cost fusion on the same paired seeds
// with an encounter alert rate no worse — the symmetric co-altitude
// squeeze is exactly the geometry pairwise fusion cannot price.
#include <gtest/gtest.h>

#include <memory>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace cav::sim {
namespace {

struct PolicyOutcome {
  int own_nmacs = 0;
  int alerted_encounters = 0;
  int joint_cycles = 0;
};

PolicyOutcome run_ring(const scenarios::Scenario& scenario, ThreatPolicy policy,
                       const CasFactory& factory, int seeds) {
  PolicyOutcome out;
  for (int seed = 1; seed <= seeds; ++seed) {
    SimConfig config;  // default noise — identical traffic across policies
    config.threat_policy = policy;
    const SimResult r = scenarios::run_scenario(scenario, config, factory, factory, seed);
    if (r.own_nmac()) ++out.own_nmacs;
    if (r.agents[0].ever_alerted) ++out.alerted_encounters;
    out.joint_cycles += r.agents[0].resolver.joint_cycles;
  }
  return out;
}

TEST(JointPolicyRingTest, JointTableBeatsCostFusionOnThePairedSeedRing) {
  ThreadPool pool;
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool));
  const auto joint = std::make_shared<const acasx::JointLogicTable>(
      acasx::solve_joint_table(acasx::JointConfig::coarse(), &pool));

  const scenarios::Scenario ring = scenarios::converging_ring(4);
  constexpr int kSeeds = 60;

  const PolicyOutcome fused =
      run_ring(ring, ThreatPolicy::kCostFused, AcasXuCas::factory(table), kSeeds);
  const PolicyOutcome jointly =
      run_ring(ring, ThreatPolicy::kJointTable,
               AcasXuCas::factory(table, {}, {}, {}, joint), kSeeds);

  EXPECT_GT(fused.own_nmacs, 0) << "sanity: the squeeze still defeats pairwise fusion";
  EXPECT_LT(jointly.own_nmacs, fused.own_nmacs)
      << "the joint table must record strictly fewer own-NMACs than cost fusion";
  EXPECT_LE(jointly.alerted_encounters, fused.alerted_encounters)
      << "the safety gain must not come from alerting more encounters";
  EXPECT_GT(jointly.joint_cycles, 0) << "the joint table actually arbitrated";
  EXPECT_EQ(fused.joint_cycles, 0) << "cost fusion never touches the joint table";
}

}  // namespace
}  // namespace cav::sim
