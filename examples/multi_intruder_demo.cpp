// Scenario-library tour: run every named multi-aircraft scenario family
// against an equipped own-ship (coarse table for a fast solve), print the
// per-pair outcome table, and render the converging-ring geometry.
//
//   ./multi_intruder_demo [intruders]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/trajectory.h"

int main(int argc, char** argv) {
  using namespace cav;

  std::size_t intruders = 0;  // 0 = family defaults
  if (argc > 1) intruders = static_cast<std::size_t>(std::atol(argv[1]));

  std::printf("solving coarse logic table...\n");
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse()));
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);

  std::printf("\n%-16s %-4s %-14s %-14s %-8s %-8s %-6s\n", "scenario", "K", "own minsep[m]",
              "global minsep", "ownNMAC", "anyNMAC", "alerts");
  for (const std::string& name : scenarios::scenario_names()) {
    // overtake is a fixed single-intruder geometry; keep its default.
    // city-corridors counts whole aircraft and is demoed at a small fleet
    // (bench_airspace_scale owns the hundreds-of-aircraft sweep).
    const bool city = (name == "city-corridors");
    const std::size_t k = (name == "overtake") ? 0
                          : city ? std::max<std::size_t>(2, intruders == 0 ? 24 : intruders)
                                 : intruders;
    const scenarios::Scenario scenario = scenarios::make_scenario(name, k);
    sim::SimConfig config;
    config.record_trajectory = true;
    if (city) config.airspace.interaction_radius_m = 2000.0;
    const auto result = scenarios::run_scenario(scenario, config, equipped, equipped, 7);

    int alerted = 0;
    for (const auto& agent : result.agents) alerted += agent.ever_alerted ? 1 : 0;
    std::printf("%-16s %-4zu %-14.1f %-14.1f %-8s %-8s %-6d\n", scenario.name.c_str(),
                scenario.num_aircraft() - 1, result.own_min_separation_m(),
                result.proximity.min_distance_m, result.own_nmac() ? "yes" : "no",
                result.nmac ? "yes" : "no", alerted);
  }

  // Detail view: the converging ring, the headline multi-threat case —
  // including all three arbitration policies (nearest-threat pairwise,
  // the cost-fused MultiThreatResolver, and the joint-threat table) over
  // a few paired seeds.
  const scenarios::Scenario ring = scenarios::make_scenario("converging-ring", intruders);
  sim::SimConfig config;
  config.record_trajectory = true;
  const auto equipped_run = scenarios::run_scenario(ring, config, equipped, equipped, 7);
  const auto unequipped_run = scenarios::run_scenario(ring, config, {}, {}, 7);

  std::printf("\nconverging-ring, %zu intruders:\n", ring.params.num_intruders());
  std::printf("  unequipped: own minsep %.1f m, own NMAC %s\n",
              unequipped_run.own_min_separation_m(), unequipped_run.own_nmac() ? "yes" : "no");
  std::printf("  equipped:   own minsep %.1f m, own NMAC %s\n",
              equipped_run.own_min_separation_m(), equipped_run.own_nmac() ? "yes" : "no");

  std::printf("\nsolving coarse joint-threat table...\n");
  const auto joint = std::make_shared<const acasx::JointLogicTable>(
      acasx::solve_joint_table(acasx::JointConfig::coarse()));
  const sim::CasFactory joint_equipped = sim::AcasXuCas::factory(table, {}, {}, {}, joint);

  std::printf("\nthreat policy on the ring (all equipped, 20 paired seeds):\n");
  for (const sim::ThreatPolicy policy :
       {sim::ThreatPolicy::kNearest, sim::ThreatPolicy::kCostFused,
        sim::ThreatPolicy::kJointTable}) {
    const bool is_joint = policy == sim::ThreatPolicy::kJointTable;
    const sim::CasFactory& factory = is_joint ? joint_equipped : equipped;
    int nmacs = 0;
    int disagreements = 0;
    for (int seed = 1; seed <= 20; ++seed) {
      sim::SimConfig policy_config;
      policy_config.threat_policy = policy;
      const auto r = scenarios::run_scenario(ring, policy_config, factory, factory, seed);
      if (r.own_nmac()) ++nmacs;
      disagreements += r.agents[0].resolver.disagreements;
    }
    std::printf("  %-12s own NMACs %2d/20%s\n",
                policy == sim::ThreatPolicy::kNearest     ? "nearest:"
                : policy == sim::ThreatPolicy::kCostFused ? "cost-fused:"
                                                          : "joint-table:",
                nmacs,
                policy == sim::ThreatPolicy::kNearest
                    ? ""
                    : (std::string("  (vs-nearest disagreements ") +
                       std::to_string(disagreements) + ")")
                        .c_str());
  }
  std::printf("\nper-pair minima (equipped):\n");
  for (const auto& pair : equipped_run.pairs) {
    std::printf("  (%d, %d): minsep %.1f m%s\n", pair.a, pair.b, pair.proximity.min_distance_m,
                pair.nmac ? "  [NMAC]" : "");
  }

  // Plan view of own vs the first ring intruder (the legacy pairwise
  // trajectory view), plus the full run as CSV for external plotting.
  std::printf("\n%s\n", sim::render_top_view(equipped_run.trajectory).c_str());
  const std::string csv_path = "multi_intruder_ring.csv";
  sim::write_multi_trajectory_csv(equipped_run.trajectory, csv_path);
  std::printf("full %zu-aircraft trajectory: %s\n", equipped_run.agents.size(),
              csv_path.c_str());
  return 0;
}
