// The E14 attack campaign as a library user would run it: GA search over
// (encounter geometry x degraded-mode conditions) against the joint-threat
// policy, with the fault knobs — link loss, burst rate, blackout window,
// ADS-B dropout — bred alongside the geometry.  The benign corner (all
// fault genes zero) is in the space, so every degradation in a found
// scenario is one the GA chose because it paid off in fitness.
//
// The two frozen fixtures in scenarios:: (ga-blackout-pincer,
// ga-burst-stale-overtake) came out of runs of this program; rerun it to
// hunt for new ones.
//
// Usage: degraded_attack_campaign [population] [generations] [runs_per_encounter] [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "core/scenario_search.h"
#include "sim/acasx_cas.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace cav;

  ThreadPool pool;
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool));
  const auto joint = std::make_shared<const acasx::JointLogicTable>(
      acasx::solve_joint_table(acasx::JointConfig::coarse(), &pool));
  const sim::CasFactory acas = sim::AcasXuCas::factory(table, {.joint = joint});

  core::MultiScenarioSearchConfig config;
  config.ga.population_size = argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 40;
  config.ga.generations = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 5;
  config.fitness.runs_per_encounter =
      argc > 3 ? static_cast<std::size_t>(std::atol(argv[3])) : 20;
  config.ga.seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;
  config.intruders = 2;
  config.keep_top = 8;
  // Attack the strongest arbitration: the joint-threat table.
  config.fitness.sim.threat_policy = sim::ThreatPolicy::kJointTable;

  const core::DegradedGeneRanges fault_ranges;
  std::printf("degraded attack: population %zu, %zu generations, %zu runs/encounter, "
              "seed %llu, target kJointTable\n\n",
              config.ga.population_size, config.ga.generations,
              config.fitness.runs_per_encounter,
              static_cast<unsigned long long>(config.ga.seed));

  const auto result = core::search_degraded_multi_scenarios(
      config, fault_ranges, acas, acas, &pool, [](const ga::GenerationStats& s) {
        std::printf("generation %zu: min %7.1f  mean %7.1f  max %7.1f\n", s.generation,
                    s.min_fitness, s.mean_fitness, s.max_fitness);
      });

  std::printf("\nsearch took %.1f s; %zu evaluations\n", result.wall_seconds,
              result.ga.total_evaluations);
  std::printf("\ntop degraded scenarios (geometry genes | fault genes):\n");
  for (const auto& found : result.top) {
    std::printf("  fitness %7.1f  NMAC %zu/%zu  loss %.2f burst %.2f blackout [%.1fs +%.1fs] "
                "dropout %.2f\n",
                found.fitness, found.detail.own_nmac_count, found.detail.runs,
                found.faults.message_loss_prob, found.faults.burst_enter_prob,
                found.faults.blackout_start_s, found.faults.blackout_duration_s,
                found.faults.adsb_dropout_burst_prob);
    std::printf("    genes:");
    for (const double g : found.params.to_vector()) std::printf(" %.3f", g);
    std::printf("\n");
  }
  return 0;
}
