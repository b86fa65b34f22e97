// E11 — Multi-intruder engine throughput: encounters/sec of the N-aircraft
// simulation as the intruder count K grows, serial vs thread pool.  The
// workload is the Monte-Carlo validation loop itself (a ValidationCampaign with
// K intruders per encounter, ACAS XU-equipped own-ship and intruders), so
// the numbers bound real validation throughput, not a synthetic kernel.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "core/monte_carlo.h"
#include "core/validation_campaign.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  using namespace cav;

  std::size_t encounters = bench::smoke() ? 24 : 400;
  if (const char* env = std::getenv("CAV_E11_ENCOUNTERS")) {
    encounters = static_cast<std::size_t>(std::atol(env));
  }

  bench::banner("E11: multi-intruder encounter engine throughput");
  const auto table = bench::standard_table();
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);

  const encounter::StatisticalEncounterModel model;
  std::printf("workload: %zu encounters/config, equipped own-ship and intruders,\n"
              "K intruders sampled per encounter (deterministic per-intruder streams)\n\n",
              encounters);

  std::printf("%-4s %-12s %-12s %-14s %-14s %-10s %-10s\n", "K", "serial [s]", "pooled [s]",
              "enc/s serial", "enc/s pooled", "speedup", "NMAC rate");
  const std::string csv_path = bench::output_dir() + "/multi_intruder_throughput.csv";
  CsvWriter csv(csv_path);
  csv.header({"intruders", "encounters", "serial_s", "pooled_s", "enc_per_s_serial",
              "enc_per_s_pooled", "speedup", "nmac_rate"});

  for (const std::size_t k : {1UL, 3UL, 7UL}) {
    core::MonteCarloConfig config;
    config.encounters = encounters;
    config.intruders = k;
    config.seed = 777;

    const auto t0 = std::chrono::steady_clock::now();
    const core::ValidationCampaign campaign(model, config, "multi-intruder", equipped,
                                            equipped);
    const auto serial = campaign.run().rates;
    const auto t1 = std::chrono::steady_clock::now();
    const auto pooled = campaign.run(&bench::pool()).rates;
    const auto t2 = std::chrono::steady_clock::now();

    const double serial_s = std::chrono::duration<double>(t1 - t0).count();
    const double pooled_s = std::chrono::duration<double>(t2 - t1).count();
    const double eps_serial = static_cast<double>(encounters) / serial_s;
    const double eps_pooled = static_cast<double>(encounters) / pooled_s;

    if (serial.nmacs != pooled.nmacs || serial.alerts != pooled.alerts) {
      std::printf("MISMATCH: serial and pooled runs disagree at K=%zu\n", k);
      return 1;
    }

    std::printf("%-4zu %-12.3f %-12.3f %-14.1f %-14.1f %-10.2f %-10.4f\n", k, serial_s,
                pooled_s, eps_serial, eps_pooled, serial_s / pooled_s, serial.nmac_rate());
    csv.cell(k).cell(encounters).cell(serial_s).cell(pooled_s).cell(eps_serial)
        .cell(eps_pooled).cell(serial_s / pooled_s).cell(serial.nmac_rate());
    csv.end_row();
    const std::string prefix = "e11.k" + std::to_string(k) + ".";
    bench::record_metric(prefix + "serial_s", serial_s);
    bench::record_metric(prefix + "pooled_s", pooled_s);
    bench::record_metric(prefix + "nmac_rate", serial.nmac_rate());
  }
  std::printf("\nCSV: %s\n", csv_path.c_str());

  // Scenario-library smoke: every named family must build and run on the
  // N-aircraft engine (the curated workload axis benches build on).
  std::printf("\nscenario library (equipped own-ship, unequipped intruders):\n");
  std::printf("%-16s %-4s %-12s %-8s %-8s\n", "scenario", "K", "own minsep", "ownNMAC",
              "alerted");
  for (const std::string& name : scenarios::scenario_names()) {
    // The scenario-library smoke stays small: city-corridors' default is a
    // 256-aircraft fleet (bench_airspace_scale's workload), far beyond the
    // budget here — run it at a token fleet with its city-sized radius.
    const bool city = (name == "city-corridors");
    const scenarios::Scenario scenario = scenarios::make_scenario(name, city ? 16 : 0);
    sim::SimConfig sim_config;
    if (city) sim_config.airspace.interaction_radius_m = 2000.0;
    const auto result = scenarios::run_scenario(scenario, sim_config, equipped, {}, 99);
    std::printf("%-16s %-4zu %-12.1f %-8s %-8s\n", scenario.name.c_str(),
                scenario.num_aircraft() - 1, result.own_min_separation_m(),
                result.own_nmac() ? "yes" : "no", result.agents[0].ever_alerted ? "yes" : "no");
  }
  return 0;
}
