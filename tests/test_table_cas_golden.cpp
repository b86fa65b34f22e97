// Goldens for the table-backed CAS's belief and horizontal configurations
// (solver tier: coarse pairwise and joint table solves, and the coarse
// horizontal table the tier already shares).
//
// Two configurations are pinned bit for bit: the QMDP belief average at
// {25 ft, 1.6 ft/s}, and the post-revision horizontal channel.  Each flies
// four scenarios on one fixed seed: head-on and the slow tail approach
// under kNearest, and the K=4 converging ring under kCostFused and under
// kJointTable with the coarse joint table.  Each run pins the minimum
// separation and NMAC time, and per aircraft the alert cycles, reversals,
// final advisory label (with the horizontal "+L"/"+R" suffix) and
// resolver statistics.  The head-on and ring runs stop at 30 s and 37 s,
// before their 40-s CPA, so the final label is a live advisory; the tail
// approach runs to its 45-s CPA.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "coarse_horizontal_table.h"
#include "encounter/encounter.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace cav::sim {
namespace {

constexpr std::uint64_t kSeed = 3;

struct Tables {
  std::shared_ptr<const acasx::LogicTable> pairwise;
  std::shared_ptr<const acasx::HorizontalTable> horizontal;
  std::shared_ptr<const acasx::JointLogicTable> joint;
};

/// The coarse tables, solved once per process (the solves are
/// deterministic).
const Tables& tables() {
  static const Tables t = [] {
    ThreadPool pool;
    return Tables{
        std::make_shared<const acasx::LogicTable>(
            acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool)),
        coarse_horizontal_table(),
        std::make_shared<const acasx::JointLogicTable>(
            acasx::solve_joint_table(acasx::JointConfig::coarse(), &pool)),
    };
  }();
  return t;
}

/// The two configurations under test; `joint` may be null.
CasFactory belief_cas(std::shared_ptr<const acasx::JointLogicTable> joint) {
  return AcasXuCas::factory(tables().pairwise,
                            {.belief = {25.0, 1.6}, .joint = std::move(joint)});
}
CasFactory horizontal_cas(std::shared_ptr<const acasx::JointLogicTable> joint) {
  return AcasXuCas::factory(tables().pairwise,
                            {.joint = std::move(joint), .horizontal = tables().horizontal});
}

SimResult fly_pair(const encounter::EncounterParams& params, double horizon_s,
                   const CasFactory& cas) {
  const encounter::InitialStates init = encounter::generate_initial_states(params);
  SimConfig config;
  config.max_time_s = horizon_s;
  AgentSetup own;
  own.initial_state = init.own;
  own.cas = cas();
  AgentSetup intruder;
  intruder.initial_state = init.intruder;
  intruder.cas = cas();
  return run_encounter(config, std::move(own), std::move(intruder), kSeed);
}

SimResult fly_ring(ThreatPolicy policy, const CasFactory& cas) {
  SimConfig config;
  config.threat_policy = policy;
  config.max_time_s = 37.0;
  const std::vector<UavState> states = scenarios::converging_ring(4).initial_states();
  std::vector<AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    agents[i].cas = cas();
  }
  return run_multi_encounter(config, std::move(agents), kSeed);
}

/// {cycles, threats_considered, max_threats_in_cycle, fused_cycles,
///  joint_cycles, fallback_cycles, vetoes, disagreements}
using ResolverCounts = std::array<int, 8>;

ResolverCounts counts(const ResolverStats& s) {
  return {s.cycles,       s.threats_considered, s.max_threats_in_cycle, s.fused_cycles,
          s.joint_cycles, s.fallback_cycles,    s.vetoes,               s.disagreements};
}

struct AgentGolden {
  int alert_cycles;
  int reversals;
  const char* final_advisory;
  ResolverCounts resolver;
};

void expect_golden(const SimResult& r, double min_distance_m, double nmac_time_s,
                   std::initializer_list<AgentGolden> agents) {
  EXPECT_EQ(r.proximity.min_distance_m, min_distance_m);
  EXPECT_EQ(r.nmac_time_s, nmac_time_s);
  ASSERT_EQ(r.agents.size(), agents.size());
  const AgentGolden* golden = agents.begin();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const AgentReport& a = r.agents[i];
    EXPECT_EQ(a.alert_cycles, golden[i].alert_cycles) << "aircraft " << i;
    EXPECT_EQ(a.reversals, golden[i].reversals) << "aircraft " << i;
    EXPECT_EQ(a.final_advisory, golden[i].final_advisory) << "aircraft " << i;
    EXPECT_EQ(counts(a.resolver), golden[i].resolver) << "aircraft " << i;
  }
}

TEST(TableCasGolden, BeliefHeadOnNearest) {
  expect_golden(fly_pair(encounter::head_on(), 30.0, belief_cas(nullptr)), 805.94105077728773, -1.0,
                {{2, 0, "SDES2500", {0, 0, 0, 0, 0, 0, 0, 0}},
                 {1, 0, "SCL2500", {0, 0, 0, 0, 0, 0, 0, 0}}});
}

TEST(TableCasGolden, BeliefTailApproachNearest) {
  expect_golden(fly_pair(encounter::tail_approach(), 45.0, belief_cas(nullptr)),
                0.96991640401861101, 34.200000000000216,
                {{0, 0, "COC", {0, 0, 0, 0, 0, 0, 0, 0}},
                 {0, 0, "COC", {0, 0, 0, 0, 0, 0, 0, 0}}});
}

TEST(TableCasGolden, BeliefRingCostFused) {
  expect_golden(fly_ring(ThreatPolicy::kCostFused, belief_cas(nullptr)),
                89.439884011328218, 36.900000000000254,
                {{6, 2, "COC", {37, 148, 4, 37, 0, 0, 1, 6}},
                 {4, 0, "SCL2500", {37, 148, 4, 37, 0, 0, 0, 10}},
                 {1, 0, "COC", {37, 148, 4, 37, 0, 0, 0, 11}},
                 {1, 0, "SDES2500", {37, 148, 4, 37, 0, 0, 0, 9}},
                 {5, 0, "COC", {37, 148, 4, 37, 0, 0, 0, 4}}});
}

TEST(TableCasGolden, BeliefRingJointTable) {
  expect_golden(fly_ring(ThreatPolicy::kJointTable, belief_cas(tables().joint)),
                92.723465420654236, -1.0,
                {{6, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 3}},
                 {5, 0, "SCL2500", {37, 148, 4, 0, 37, 0, 1, 11}},
                 {1, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 12}},
                 {1, 0, "SDES2500", {37, 148, 4, 0, 37, 0, 0, 9}},
                 {5, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 7}}});
}

TEST(TableCasGolden, HorizontalHeadOnNearest) {
  expect_golden(fly_pair(encounter::head_on(), 30.0, horizontal_cas(nullptr)),
                807.51484324665114, -1.0,
                {{3, 0, "DES1500+R", {0, 0, 0, 0, 0, 0, 0, 0}},
                 {4, 0, "COC+L", {0, 0, 0, 0, 0, 0, 0, 0}}});
}

TEST(TableCasGolden, HorizontalTailApproachNearest) {
  expect_golden(fly_pair(encounter::tail_approach(), 45.0, horizontal_cas(nullptr)),
                198.11409488526013, -1.0,
                {{5, 0, "COC", {0, 0, 0, 0, 0, 0, 0, 0}},
                 {0, 0, "COC", {0, 0, 0, 0, 0, 0, 0, 0}}});
}

TEST(TableCasGolden, HorizontalRingCostFused) {
  expect_golden(fly_ring(ThreatPolicy::kCostFused, horizontal_cas(nullptr)),
                125.50914549355926, -1.0,
                {{14, 0, "COC+L", {37, 148, 4, 37, 0, 0, 0, 3}},
                 {1, 0, "COC", {37, 148, 4, 37, 0, 0, 0, 3}},
                 {3, 0, "COC", {37, 148, 4, 37, 0, 0, 0, 10}},
                 {8, 0, "COC+L", {37, 148, 4, 37, 0, 0, 0, 8}},
                 {11, 0, "SDES2500", {37, 148, 4, 37, 0, 0, 0, 2}}});
}

TEST(TableCasGolden, HorizontalRingJointTable) {
  expect_golden(fly_ring(ThreatPolicy::kJointTable, horizontal_cas(tables().joint)),
                80.630363523372509, -1.0,
                {{14, 0, "COC+L", {37, 148, 4, 0, 37, 0, 0, 2}},
                 {5, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 4}},
                 {3, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 10}},
                 {3, 0, "SDES2500+L", {37, 148, 4, 0, 37, 0, 0, 13}},
                 {9, 0, "COC", {37, 148, 4, 0, 37, 0, 0, 5}}});
}

}  // namespace
}  // namespace cav::sim
