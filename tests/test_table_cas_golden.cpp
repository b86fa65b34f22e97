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
// approach runs to its 45-s CPA.  A third pin covers a 512-encounter
// pairwise Monte-Carlo campaign with the point-estimate logic.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "coarse_horizontal_table.h"
#include "core/validation_campaign.h"
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

TEST(TableCasGolden, PairwiseCampaignCells) {
  // 512 pairwise encounters of the statistical model, ACAS Xu (point
  // estimate, kNearest) on both aircraft: the campaign totals and every
  // canonical cell's separation sum, pinned bit for bit.  The sums fold in
  // each encounter's minimum 3-D separation, so the pin covers the whole
  // engine (pair collection, decisions, physics, monitor replay) on the
  // path the Monte-Carlo rates are estimated from.
  core::MonteCarloConfig config;
  config.encounters = 512;
  config.seed = kSeed;
  const CasFactory cas = AcasXuCas::factory(tables().pairwise);
  const core::ValidationCampaign campaign(encounter::StatisticalEncounterModel{}, config,
                                          "acas-xu", cas, cas);
  const core::StripeResult r = campaign.run_stripe(campaign.make_stripes(1).front());

  static constexpr std::array<double, 64> kSepSum = {
      1695.3180141549801, 2971.4711259779765, 1965.6893742777772, 1564.4860804759173,
      1820.0026742635985, 1507.3833050061655, 1491.2467319429516, 1242.2916178273294,
      1416.668141508761, 1469.2988428563472, 1491.8555473825693, 2077.192974536239,
      1014.1961474842346, 1727.4358491190367, 2003.6750354237299, 1899.7094734960604,
      1778.4240357818876, 1776.9156937441851, 2027.6114315415734, 1490.5567217906212,
      1460.4773480545525, 1732.0165017957856, 1321.0376152868116, 1955.5575757505555,
      1970.5336936342317, 1289.22329592608, 1877.1523620229241, 1451.1011923416841,
      1254.3644662064069, 1772.6248111099376, 2150.0349941040699, 1858.0709969754021,
      1627.4600015057372, 1236.1138553413662, 1732.9905766148281, 936.05086613546837,
      1417.9164499486992, 1110.9708285712029, 1639.8162418713612, 2148.0050419302461,
      1165.9808203040384, 1476.3574417623361, 1296.5988257513272, 2090.0710952524623,
      1495.0633175789703, 1366.5151217900395, 2105.0182982534834, 1489.7785561152034,
      2098.3103194236951, 1436.0370355461525, 2432.2855495139484, 2266.9866376340347,
      1818.5885326077705, 1668.6496320727567, 1994.3343023202808, 1949.1185330699427,
      2044.1906565631664, 2196.9981357436536, 1084.9403890354845, 2452.7313128904443,
      1680.3208577016567, 1295.8482053374737, 2048.3740751232967, 1762.1664432181399,
  };
  ASSERT_EQ(r.cells.size(), kSepSum.size());
  std::uint64_t nmacs = 0;
  std::uint64_t alerts = 0;
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    nmacs += r.cells[c].nmacs;
    alerts += r.cells[c].alerts;
    EXPECT_EQ(r.cells[c].sep_sum, kSepSum[c]) << "cell " << c;
  }
  EXPECT_EQ(nmacs, 8u);
  EXPECT_EQ(alerts, 265u);
}

}  // namespace
}  // namespace cav::sim
