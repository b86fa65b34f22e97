// E17 — Sharded-campaign scaling: the same validation campaign run with
// 1, 2, and 4 cav_worker processes (dist/campaign_driver.h) must produce
// BIT-identical rates at every width, and the wall clock should drop as
// workers are added.  Two campaigns: TCAS-like on both sides, and ACAS Xu
// on both sides read from an f32 table image, the path a production
// campaign takes (every worker opens and maps the image before its first
// stripe, so its first-result time is recorded too).  Determinism is the
// hard gate (non-zero exit on any mismatch); the >=1.5x speedup at 2
// workers is an expectation printed as a warning — single-core CI boxes
// can't honor it and must not fail.  A 2-way sharded offline solve rides
// along as a second determinism probe of the dist layer (tau-layer sweeps
// reassembled across processes).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "acasx/offline_solver.h"
#include "bench_common.h"
#include "dist/campaign_driver.h"
#include "dist/solve_driver.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool rates_identical(const cav::core::SystemRates& a, const cav::core::SystemRates& b) {
  return a.encounters == b.encounters && a.nmacs == b.nmacs && a.alerts == b.alerts &&
         a.mean_min_separation_m == b.mean_min_separation_m;
}

/// Run `spec` at 1, 2 and 4 workers: one table row and `<prefix>w<N>.*`
/// metrics per width.  The 1-worker run is in-process and has no first
/// result to time.  Returns the walls; clears `identical` on any width
/// whose rates differ from the 1-worker run's.
std::vector<double> scaling_rows(const cav::dist::CampaignSpec& spec, const std::string& prefix,
                                 bool& identical) {
  using namespace cav;
  std::printf("%-8s %-12s %-12s %-14s %-10s %-10s %-s\n", "workers", "NMAC rate", "wall [s]",
              "first res [s]", "enc/s", "requeues", "bit-identical");
  std::vector<double> walls;
  core::SystemRates reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    dist::CampaignDriverOptions options;
    options.num_workers = workers;
    const auto t0 = std::chrono::steady_clock::now();
    double first_result_s = -1.0;
    options.on_result = [&](std::size_t done, std::size_t) {
      if (done == 1) first_result_s = seconds_since(t0);
    };
    const core::CampaignResult result = dist::run_sharded_campaign(spec, options);
    const double wall_s = seconds_since(t0);
    walls.push_back(wall_s);

    if (workers == 1) reference = result.rates;
    const bool same = rates_identical(result.rates, reference);
    identical = identical && same;

    const double enc_per_s = static_cast<double>(spec.config.encounters) / wall_s;
    char first[32] = "-";
    if (first_result_s >= 0.0) std::snprintf(first, sizeof first, "%.3f", first_result_s);
    std::printf("%-8zu %-12.4f %-12.3f %-14s %-10.1f %-10zu %s\n", workers,
                result.rates.nmac_rate(), wall_s, first, enc_per_s, result.requeues,
                same ? "yes" : "NO  <-- FAILURE");
    const std::string key = prefix + "w" + std::to_string(workers) + ".";
    bench::record_metric(key + "wall_s", wall_s);
    bench::record_metric(key + "enc_per_s", enc_per_s);
    if (first_result_s >= 0.0) bench::record_metric(key + "first_result_s", first_result_s);
  }
  return walls;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cav;
  bench::init(argc, argv);

  std::size_t encounters = bench::smoke() ? 192 : 4000;
  if (const char* env = std::getenv("CAV_E17_ENCOUNTERS")) {
    encounters = static_cast<std::size_t>(std::atol(env));
  }

  bench::banner("E17: sharded-campaign scaling (1/2/4 worker processes)");

  dist::CampaignSpec spec;
  spec.config.encounters = encounters;
  spec.config.seed = 171717;
  spec.system_name = "tcas-sharded";
  spec.own_cas = dist::CasSpec::tcas_like();
  spec.intruder_cas = dist::CasSpec::tcas_like();

  std::printf("workload: %zu encounters, TCAS-like both sides, one-cell stripes handed to\n"
              "forked cav_worker processes over the dist/wire.h pipe protocol\n\n",
              encounters);
  bool determinism_ok = true;
  const std::vector<double> walls = scaling_rows(spec, "e17.", determinism_ok);
  const double speedup2 = walls[0] / walls[1];
  const double speedup4 = walls[0] / walls[2];
  bench::record_metric("e17.speedup_2w", speedup2);
  bench::record_metric("e17.speedup_4w", speedup4);
  std::printf("\nspeedup vs 1 worker: 2w %.2fx, 4w %.2fx\n", speedup2, speedup4);

  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    std::printf("single-core host (%u): the >=1.5x 2-worker expectation is not gated here\n",
                cores);
  } else if (bench::smoke()) {
    std::printf("smoke mode: workloads are shrunken, timings meaningless — not gated\n");
  } else if (speedup2 < 1.5) {
    std::printf("WARNING: 2-worker speedup %.2fx below the 1.5x expectation on a %u-core "
                "host (not a failure gate; determinism is)\n",
                speedup2, cores);
  } else {
    std::printf("2-worker speedup meets the >=1.5x expectation on this %u-core host\n", cores);
  }

  // The same widths for ACAS Xu on both sides, read from one f32 image of
  // the standard table (coarse in smoke mode).
  const std::string acas_image = bench::output_dir() + "/e17_acas_f32.img";
  bench::standard_table()->save(acas_image);
  dist::CampaignSpec acas = spec;
  acas.system_name = "acas-xu-image";
  acas.own_cas = dist::CasSpec::acas_xu(acas_image);
  acas.intruder_cas = dist::CasSpec::acas_xu(acas_image);
  std::printf("\nworkload: %zu encounters, ACAS Xu both sides from one f32 table image\n\n",
              encounters);
  const std::vector<double> acas_walls = scaling_rows(acas, "e17.acas.", determinism_ok);
  bench::record_metric("e17.acas.speedup_4w", acas_walls[0] / acas_walls[2]);
  std::printf("\nACAS Xu speedup vs 1 worker: 2w %.2fx, 4w %.2fx\n",
              acas_walls[0] / acas_walls[1], acas_walls[0] / acas_walls[2]);
  std::remove(acas_image.c_str());

  // Second determinism probe: a 2-way sharded offline solve (tau layers
  // swept by grid slice across the fleet) against the serial solver.  The
  // coarse space keeps this bounded in every mode.
  const acasx::AcasXuConfig solve_config = acasx::AcasXuConfig::coarse();
  const auto serial_t0 = std::chrono::steady_clock::now();
  const acasx::LogicTable serial = acasx::solve_logic_table(solve_config);
  const double serial_s = seconds_since(serial_t0);

  dist::SolveDriverOptions solve_options;
  solve_options.num_workers = 2;
  dist::ShardedSolveReport report;
  const std::string image = bench::output_dir() + "/e17_pair_stencils.cavt";
  const auto sharded_t0 = std::chrono::steady_clock::now();
  const acasx::LogicTable sharded =
      dist::solve_logic_table_sharded(solve_config, image, solve_options, &report);
  const double sharded_s = seconds_since(sharded_t0);

  bool solve_identical = sharded.num_entries() == serial.num_entries();
  for (std::size_t i = 0; solve_identical && i < serial.num_entries(); ++i) {
    solve_identical = sharded.values()[i] == serial.values()[i];
  }
  determinism_ok = determinism_ok && solve_identical;
  std::printf("\n2-way sharded solve (coarse space): serial %.3f s, sharded %.3f s "
              "(stencil compile %.3f s), bit-identical: %s\n",
              serial_s, sharded_s, report.stencil_build_s,
              solve_identical ? "yes" : "NO  <-- FAILURE");
  bench::record_metric("e17.solve_serial_s", serial_s);
  bench::record_metric("e17.solve_sharded_2w_s", sharded_s);
  std::remove(image.c_str());

  if (!determinism_ok) {
    std::printf("\nFAIL: sharded execution perturbed the results — the bit-identity "
                "contract is broken\n");
    return 1;
  }
  std::printf("\nall widths bit-identical — determinism gate passed\n");
  return 0;
}
