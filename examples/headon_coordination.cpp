// Fig. 5 walkthrough: fly one head-on encounter with both UAVs equipped
// and coordinating, print the advisory timeline cycle by cycle, render
// ASCII top/side views, and export the trajectory as CSV for plotting.
//
// Usage: headon_coordination [output.csv]
#include <cstdio>
#include <memory>

#include "acasx/offline_solver.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "sim/trajectory.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace cav;

  ThreadPool pool;
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::standard(), &pool));
  const sim::CasFactory acas = sim::AcasXuCas::factory(table);

  core::FitnessConfig config;
  config.runs_per_encounter = 1;
  const core::EncounterEvaluator evaluator(config, acas, acas);

  const encounter::EncounterParams head_on = encounter::head_on();
  const sim::SimResult run = evaluator.run_once(head_on, /*stream_id=*/5, /*run_index=*/0,
                                                /*record_trajectory=*/true);

  std::printf("head-on encounter (paper Fig. 5): both UAVs at 40 m/s, co-altitude,\n"
              "collision at t = %.0f s if nobody maneuvers.\n\n", head_on.t_cpa_s);

  std::printf("%-6s %-12s %-12s %-14s %-14s %-12s\n", "t[s]", "own alt[m]", "int alt[m]",
              "own advisory", "int advisory", "sep[m]");
  for (const auto& s : run.trajectory) {
    const double separation_m = distance(s.position_m[0], s.position_m[1]);
    // Print only the interesting window around the alerts.
    if (s.advisory[0] == "COC" && s.advisory[1] == "COC" && separation_m > 1500.0) continue;
    std::printf("%-6.0f %-12.1f %-12.1f %-14s %-14s %-12.1f\n", s.t_s, s.position_m[0].z,
                s.position_m[1].z, s.advisory[0].c_str(), s.advisory[1].c_str(), separation_m);
  }

  std::printf("\n%s\n", sim::render_side_view(run.trajectory).c_str());
  std::printf("%s\n", sim::render_top_view(run.trajectory).c_str());
  std::printf("outcome: min separation %.1f m at t = %.1f s; NMAC: %s\n",
              run.proximity.min_distance_m, run.proximity.time_of_min_distance_s,
              run.nmac ? "YES" : "no");
  std::printf("own-ship alerted at t = %.0f s; coordination gave the intruder the\n"
              "complementary sense (own %s / intruder %s final advisories).\n",
              run.agents[0].first_alert_time_s, run.agents[0].final_advisory.c_str(),
              run.agents[1].final_advisory.c_str());

  const std::string csv_path = argc > 1 ? argv[1] : "headon_trajectory.csv";
  sim::write_trajectory_csv(run.trajectory, csv_path);
  std::printf("trajectory written to %s\n", csv_path.c_str());
  return 0;
}
