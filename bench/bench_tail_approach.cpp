// E4 — Figs. 7-8 and the §VII quantitative claim: tail-approach
// encounters (one UAV descending, the other climbing and approaching from
// the tail with tiny closure) end in mid-air collision in ~80-90 of 100
// runs, whereas head-on encounters collide in fewer than 5 of 100.
//
// The bench renders a typical discovered geometry (the Figs. 7-8 analog),
// then sweeps the tail-approach family across closure rates to map the
// blind-spot boundary of tau-based alerting.
#include <cstdio>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "sim/trajectory.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  using namespace cav;

  bench::banner("E4: tail-approach challenging situations (paper Figs. 7-8, SVII)");
  const auto table = bench::standard_table();
  const auto acas = sim::AcasXuCas::factory(table);

  core::FitnessConfig config;
  config.runs_per_encounter = 100;
  const core::EncounterEvaluator evaluator(config, acas, acas);

  // --- The Figs. 7-8 picture: one instrumented tail-approach run. ---
  core::FitnessConfig trace_config = config;
  trace_config.runs_per_encounter = 1;
  const core::EncounterEvaluator tracer(trace_config, acas, acas);
  const sim::SimResult run =
      tracer.run_once(encounter::tail_approach(), /*stream_id=*/7, /*run_index=*/0, true);
  std::printf("\n%s\n", sim::render_side_view(run.trajectory).c_str());
  std::printf("typical tail approach: min separation %.1f m, NMAC: %s, own alerted: %s\n",
              run.proximity.min_distance_m, run.nmac ? "YES" : "no",
              run.agents[0].ever_alerted ? "yes" : "NO (the blind spot)");

  const std::string csv_path = bench::output_dir() + "/fig78_tail_trajectory.csv";
  sim::write_trajectory_csv(run.trajectory, csv_path);
  std::printf("trajectory CSV: %s\n", csv_path.c_str());

  // --- The headline contrast. ---
  bench::banner("accident rates over 100 runs (paper: tail 80-90/100, head-on <5/100)");
  std::printf("%-28s %-10s %-14s %-10s %-10s\n", "encounter", "NMAC", "mean miss[m]", "fitness",
              "alerted");
  const auto report = [&](const char* name, const encounter::EncounterParams& params,
                          std::uint64_t stream) {
    const auto eval = evaluator.evaluate(params, stream);
    std::printf("%-28s %3zu/%-6zu %-14.1f %-10.1f %4.0f%%\n", name, eval.nmac_count, eval.runs,
                eval.mean_miss_m, eval.fitness, 100.0 * eval.alert_fraction_own);
    return eval;
  };
  report("tail approach (Figs. 7-8)", encounter::tail_approach(), 1);
  report("head-on (Fig. 5)", encounter::head_on(), 2);
  report("crossing", encounter::crossing(), 3);
  report("descending intruder", encounter::descending_intruder(), 4);

  // --- Closure-rate sweep: where does the blind spot end? ---
  bench::banner("closure-rate sweep of the tail family (blind-spot boundary)");
  std::printf("%-18s %-12s %-10s %-10s %-12s\n", "closure [m/s]", "tau est[s]", "NMAC",
              "alerted", "class");
  const std::string sweep_path = bench::output_dir() + "/tail_closure_sweep.csv";
  CsvWriter csv(sweep_path);
  csv.header({"closure_mps", "nmac_rate", "alert_fraction"});
  for (const double closure : {1.0, 2.0, 4.0, 6.0, 10.0, 15.0, 20.0, 30.0}) {
    encounter::EncounterParams params = encounter::tail_approach();
    params.gs_int_mps = params.gs_own_mps + closure;  // overtake at this speed
    const auto eval = evaluator.evaluate(params, 100 + static_cast<std::uint64_t>(closure));
    const double range0 = closure * params.t_cpa_s;  // initial separation
    const double tau0 = (range0 > 152.4) ? (range0 - 152.4) / closure : 0.0;
    std::printf("%-18.1f %-12.1f %3zu/%-6zu %4.0f%%      %s\n", closure, tau0, eval.nmac_count,
                eval.runs, 100.0 * eval.alert_fraction_own,
                core::encounter_class_name(core::classify(params)));
    csv.cell(closure).cell(eval.nmac_rate()).cell(eval.alert_fraction_own);
    csv.end_row();
  }
  std::printf("sweep CSV: %s\n", sweep_path.c_str());

  std::printf("\npaper expectation: at low closure the tau estimate is degenerate (the\n"
              "pair is inside/near DMOD with near-zero closure), the logic stays\n"
              "silent, and the climb-through-descend geometry collides in most runs;\n"
              "fast overtakes restore normal alerting.\n");
  return 0;
}
