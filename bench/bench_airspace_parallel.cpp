// E18 — Parallel logical-process airspace: city_corridors fleets run
// through the same restructured engine serial and at 1/2/4 logical
// processes on a worker pool (sim::LpConfig).  Every LP/thread
// configuration must produce BIT-identical results — trajectories enter
// the same monitors, the pair minima, NMAC verdicts, and event-core
// accounting must match the serial run exactly.  Determinism is the hard
// gate (non-zero exit on any mismatch); speedup is printed as an
// expectation only, never gated (same policy as E17).  Each fleet also
// records the process peak RSS, which follows near pairs now that
// coordination links exist only over them.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "acasx/offline_solver.h"
#include "bench_common.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Process high-water RSS so far.  Fleets run in ascending K, so the value
/// read after a fleet's runs is that fleet's peak.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The bit-identity contract, on every surface a SimResult exposes: the
/// assembled proximity/NMAC verdicts, the per-pair minima in the sorted
/// monitor view, and the event-core accounting (a diverged substep or
/// pair count means the engines did different work even if the minima
/// happened to agree).
bool identical(const cav::sim::SimResult& a, const cav::sim::SimResult& b) {
  if (a.proximity.min_distance_m != b.proximity.min_distance_m ||
      a.proximity.min_horizontal_m != b.proximity.min_horizontal_m ||
      a.proximity.min_vertical_m != b.proximity.min_vertical_m ||
      a.proximity.time_of_min_distance_s != b.proximity.time_of_min_distance_s) {
    return false;
  }
  if (a.nmac != b.nmac || a.nmac_time_s != b.nmac_time_s) return false;
  if (a.stats.fine_agent_steps != b.stats.fine_agent_steps ||
      a.stats.coarse_agent_steps != b.stats.coarse_agent_steps ||
      a.stats.pair_updates != b.stats.pair_updates ||
      a.stats.monitored_pairs != b.stats.monitored_pairs ||
      a.stats.peak_active_pairs != b.stats.peak_active_pairs ||
      a.stats.decision_cycles != b.stats.decision_cycles ||
      a.stats.fault_events != b.stats.fault_events ||
      a.stats.coordination_links != b.stats.coordination_links) {
    return false;
  }
  if (a.pairs.size() != b.pairs.size()) return false;
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    if (a.pairs[p].a != b.pairs[p].a || a.pairs[p].b != b.pairs[p].b ||
        a.pairs[p].proximity.min_distance_m != b.pairs[p].proximity.min_distance_m ||
        a.pairs[p].proximity.time_of_min_distance_s !=
            b.pairs[p].proximity.time_of_min_distance_s) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cav;
  bench::init(argc, argv);

  bench::banner("E18: parallel-LP airspace (city corridors, 1/2/4 LPs)");

  // LP scaling is table-resolution independent, so the coarse space keeps
  // the offline solve out of the measurement in every mode.
  const auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::coarse()));
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);

  const std::vector<std::size_t> fleets =
      bench::smoke() ? std::vector<std::size_t>{256}
                     : std::vector<std::size_t>{256, 1024, 4096, 16384};
  const double horizon_s = bench::smoke() ? 24.0 : 120.0;

  std::printf("workload: city_corridors fleets, fully ACAS-Xu equipped, %.0f s\n"
              "horizon, interaction radius 2000 m (== lane spacing); each LP\n"
              "width runs on the shared worker pool and is checked bit-for-bit\n"
              "against the serial engine\n\n",
              horizon_s);
  std::printf("%-8s %-6s %-12s %-10s %-14s %-s\n", "fleet", "LPs", "wall [s]", "NMAC",
              "active pairs", "bit-identical");

  bool determinism_ok = true;
  for (const std::size_t k : fleets) {
    const scenarios::Scenario city = scenarios::city_corridors(k, 2016);
    const std::vector<sim::UavState> states = city.initial_states();

    auto run_with_lps = [&](int num_lps, ThreadPool* pool) {
      std::vector<sim::AgentSetup> agents(states.size());
      for (std::size_t i = 0; i < states.size(); ++i) {
        agents[i].initial_state = states[i];
        agents[i].cas = equipped();
      }
      sim::SimConfig config;
      config.airspace.interaction_radius_m = 2000.0;
      config.airspace.parallel.num_lps = num_lps;
      config.airspace.parallel.pool = pool;
      config.max_time_s = horizon_s;
      return sim::run_multi_encounter(config, std::move(agents), 13);
    };

    const auto serial_t0 = std::chrono::steady_clock::now();
    const sim::SimResult reference = run_with_lps(1, nullptr);
    const double serial_s = seconds_since(serial_t0);
    std::printf("%-8zu %-6s %-12.3f %-10s %-14zu %s\n", k, "serial", serial_s,
                reference.nmac ? "yes" : "no", reference.stats.peak_active_pairs, "(reference)");
    const std::string key = "e18.k" + std::to_string(k) + ".";
    bench::record_metric(key + "serial.wall_s", serial_s);

    std::vector<double> walls;
    for (const int num_lps : {1, 2, 4}) {
      const auto t0 = std::chrono::steady_clock::now();
      const sim::SimResult result = run_with_lps(num_lps, &bench::pool());
      const double wall_s = seconds_since(t0);
      walls.push_back(wall_s);

      const bool match = identical(result, reference);
      determinism_ok = determinism_ok && match;
      std::printf("%-8zu %-6d %-12.3f %-10s %-14zu %s\n", k, num_lps, wall_s,
                  result.nmac ? "yes" : "no", result.stats.peak_active_pairs,
                  match ? "yes" : "NO  <-- FAILURE");
      bench::record_metric(key + "lp" + std::to_string(num_lps) + ".wall_s", wall_s);
    }
    bench::record_metric(key + "speedup_2lp", walls[0] / walls[1]);
    bench::record_metric(key + "speedup_4lp", walls[0] / walls[2]);
    const double rss_mb = peak_rss_mb();
    bench::record_metric(key + "peak_rss_mb", rss_mb);
    std::printf("%-8zu peak RSS %.1f MB, %zu coordination links\n\n", k, rss_mb,
                reference.stats.coordination_links);
  }

  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    std::printf("single-core host (%u): LP speedup is not gated here — the\n"
                "decision/coordination phase is serial by contract, everything\n"
                "else stripes across the pool\n",
                cores);
  } else if (bench::smoke()) {
    std::printf("smoke mode: workloads are shrunken, timings meaningless — not gated\n");
  }

  if (!determinism_ok) {
    std::printf("\nFAIL: an LP configuration perturbed the results — the bit-identity "
                "contract is broken\n");
    return 1;
  }
  std::printf("\nall LP widths bit-identical to serial — determinism gate passed\n");
  return 0;
}
