// Workload `city`: a city_corridors fleet, every aircraft running ACAS Xu
// on the standard pairwise table.  One op is one aircraft decision cycle.
// This is the only workload where per-cycle airspace work (coordination
// state, spatial index, pair monitors) dominates.
//
// The timed runs use the serial engine (1 LP).  On the shared 4-core host
// the nproc-LP engine's wall clock follows hypervisor steal, which comes in
// waves of seconds: its fork-join barriers wait on whichever vCPU is
// descheduled, and its ops_per_s spread 48% over five seeds (2 LPs: 31%
// over four) against 6% serial (README "Measured spreads").  The nproc-LP engine
// still runs, outside the window: bit-for-bit against 1 LP on a small
// fleet in every run, and traced as one full-size run() whose speedup and
// busy cores are per-layer metrics.
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace cav;

constexpr std::size_t kFleet = 4096;
constexpr std::size_t kProbeFleet = 512;
/// Fleet of the N-LP vs 1-LP bit-identity check (outside the window).
constexpr std::size_t kIdentityFleet = 256;
constexpr double kHorizonS = 120.0;
constexpr std::uint64_t kCycles = 120;  // kHorizonS / the 1 s decision period

sim::SimConfig city_config(int num_lps, ThreadPool* pool) {
  sim::SimConfig config;
  config.max_time_s = kHorizonS;
  config.airspace.interaction_radius_m = 2000.0;  // == corridor lane spacing
  config.airspace.parallel.num_lps = num_lps;
  config.airspace.parallel.pool = pool;
  return config;
}

std::vector<sim::AgentSetup> equip(Context& ctx, const std::vector<sim::UavState>& states,
                                   std::uint64_t request) {
  ScopedSpan span(ctx.tracer, "sim.equip_fleet", request);
  const sim::CasFactory factory = sim::AcasXuCas::factory(ctx.table);
  std::vector<sim::AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    agents[i].cas = factory();
  }
  return agents;
}

/// Every surface a SimResult exposes that must not depend on the LP count.
bool identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.proximity.min_distance_m != b.proximity.min_distance_m ||
      a.proximity.time_of_min_distance_s != b.proximity.time_of_min_distance_s ||
      a.nmac != b.nmac || a.nmac_time_s != b.nmac_time_s ||
      a.stats.decision_cycles != b.stats.decision_cycles ||
      a.stats.fine_agent_steps != b.stats.fine_agent_steps ||
      a.stats.coarse_agent_steps != b.stats.coarse_agent_steps ||
      a.stats.pair_updates != b.stats.pair_updates ||
      a.stats.monitored_pairs != b.stats.monitored_pairs ||
      a.stats.peak_active_pairs != b.stats.peak_active_pairs ||
      a.pairs.size() != b.pairs.size() || a.agents.size() != b.agents.size()) {
    return false;
  }
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    if (a.pairs[p].a != b.pairs[p].a || a.pairs[p].b != b.pairs[p].b ||
        a.pairs[p].proximity.min_distance_m != b.pairs[p].proximity.min_distance_m ||
        a.pairs[p].nmac != b.pairs[p].nmac) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    if (a.agents[i].alert_cycles != b.agents[i].alert_cycles ||
        a.agents[i].reversals != b.agents[i].reversals ||
        a.agents[i].final_advisory != b.agents[i].final_advisory) {
      return false;
    }
  }
  return true;
}

/// The invariants every timed run must satisfy; none pins a per-seed value.
bool invariants_hold(const sim::SimResult& r, std::size_t fleet) {
  if (r.stats.decision_cycles != kCycles) return false;
  if (r.stats.monitored_pairs > fleet * (fleet - 1) / 2) return false;
  if (!std::isfinite(r.proximity.min_distance_m)) return false;
  for (const auto& pair : r.pairs) {
    if (!std::isfinite(pair.proximity.min_distance_m)) return false;
  }
  return true;
}

}  // namespace

void run_city(Context& ctx, const Plan& plan) {
  Tracer& tracer = ctx.tracer;
  const std::uint64_t first_request = tracer.last_request() + 1;
  const std::size_t fleet = plan.primary ? kFleet : kProbeFleet;
  const std::uint64_t seed = ctx.options.seed;
  const auto lps = static_cast<int>(nproc());
  ThreadPool pool(static_cast<std::size_t>(lps));
  const sim::SimConfig config = city_config(1, nullptr);
  const sim::SimConfig lp_config = city_config(lps, &pool);

  // Set-up: table solve, scenario, CAS fleet, Simulation constructor —
  // repeated, reporting the median; the last Simulation is the first one
  // timed.
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<sim::UavState> states;
  std::vector<double> setup_s;
  std::vector<double> construct_rss_mb;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    simulation.reset();
    const std::uint64_t request = tracer.next_request();
    ScopedSpan root(tracer, "bench.setup", request);
    const double t0 = wall_s();
    if (plan.primary || !ctx.table) {
      ctx.table.reset();
      ctx.table = solve_table(ctx, acasx::AcasXuConfig::standard(), request);
    }
    {
      ScopedSpan span(tracer, "scenarios.city_corridors", request);
      states = scenarios::city_corridors(fleet, seed).initial_states();
    }
    std::vector<sim::AgentSetup> agents = equip(ctx, states, request);
    const double rss0 = current_rss_mb();
    {
      ScopedSpan span(tracer, "sim.construct", request);
      simulation = std::make_unique<sim::Simulation>(config, std::move(agents), seed);
    }
    construct_rss_mb.push_back(current_rss_mb() - rss0);
    setup_s.push_back(wall_s() - t0);
  }

  // Timed window: closed loop of run() calls, each on a fresh Simulation
  // of the same inputs.  A unit is one run(); only run() counts toward
  // throughput and CPU.
  std::vector<double> unit_ops_per_s, unit_cpu_us;
  double run_cpu = 0.0;
  std::uint64_t agent_steps = 0;
  sim::SimStats stats;
  const double window_start = wall_s();
  for (int iteration = 0;; ++iteration) {
    const std::uint64_t request = tracer.next_request();
    if (!simulation) {
      std::vector<sim::AgentSetup> agents = equip(ctx, states, request);
      ScopedSpan span(tracer, "sim.construct", request);
      simulation = std::make_unique<sim::Simulation>(config, std::move(agents), seed);
    }
    const double cpu0 = process_cpu_s();
    const double w0 = wall_s();
    sim::SimResult result;
    {
      ScopedSpan span(tracer, "sim.run", request);
      result = simulation->run();
    }
    const double wall = wall_s() - w0;
    const double cpu = process_cpu_s() - cpu0;
    simulation.reset();

    const auto ops = static_cast<double>(fleet * kCycles);
    unit_ops_per_s.push_back(ops / wall);
    unit_cpu_us.push_back(1e6 * cpu / ops);
    run_cpu += cpu;
    agent_steps += result.stats.fine_agent_steps + result.stats.coarse_agent_steps;
    if (iteration == 0) stats = result.stats;
    ctx.count(fleet * kCycles, invariants_hold(result, fleet) ? 0 : fleet * kCycles,
              "city: run invariants (120 cycles, finite minima, pairs <= K(K-1)/2)");
    if (!plan.primary || wall_s() - window_start >= plan.window_s) break;
  }

  if (plan.primary) {
    // N LPs against 1 LP, bit for bit, on a small fleet of the same seed.
    const std::uint64_t request = tracer.next_request();
    ScopedSpan root(tracer, "bench.identity_check", request);
    const auto small = scenarios::city_corridors(kIdentityFleet, seed).initial_states();
    sim::Simulation serial(config, equip(ctx, small, request), seed);
    sim::Simulation striped(lp_config, equip(ctx, small, request), seed);
    const std::uint64_t checked = kIdentityFleet * kCycles;
    ctx.count(checked, identical(serial.run(), striped.run()) ? 0 : checked,
              "city: N-LP run differs from the 1-LP run");
    record_end_to_end(ctx, setup_s, peak_rss_mb(), unit_ops_per_s, unit_cpu_us);
    record_setup_layers(ctx, first_request);
  }

  if (!tracer.enabled()) return;
  const auto put = [&](const char* name, double value, const char* unit) {
    put_layer(ctx, plan, name, value, unit);
  };
  {
    // One run() of the same inputs on the nproc-LP engine: LP scaling.
    const std::uint64_t request = tracer.next_request();
    sim::Simulation striped(lp_config, equip(ctx, states, request), seed);
    const double cpu0 = process_cpu_s();
    const double w0 = wall_s();
    {
      ScopedSpan span(tracer, "sim.run_lp", request);
      striped.run();
    }
    const double wall = wall_s() - w0;
    put("sim.lp_run_s", wall, "s");
    put("sim.lp_speedup", median(tracer.durations("sim.run", first_request)) / wall, "x");
    put("sim.busy_cores", (process_cpu_s() - cpu0) / wall, "cores");
  }
  put("scenarios.build_s", median(tracer.durations("scenarios.city_corridors", first_request)),
      "s");
  put("sim.construct_s", median(tracer.durations("sim.construct", first_request)), "s");
  // The first constructor's growth: later ones reuse the heap the previous
  // Simulation freed.
  put("sim.construct_rss_mb", construct_rss_mb.front(), "MB");
  put("sim.run_s", median(tracer.durations("sim.run", first_request)), "s");
  put("sim.ns_per_agent_step", 1e9 * run_cpu / static_cast<double>(agent_steps), "ns");
  put("sim.decision_cycles", static_cast<double>(stats.decision_cycles), "count");
  put("sim.fine_agent_steps", static_cast<double>(stats.fine_agent_steps), "count");
  put("sim.coarse_agent_steps", static_cast<double>(stats.coarse_agent_steps), "count");
  put("sim.pair_updates", static_cast<double>(stats.pair_updates), "count");
  put("sim.monitored_pairs", static_cast<double>(stats.monitored_pairs), "count");
  put("sim.peak_active_pairs", static_cast<double>(stats.peak_active_pairs), "count");
}

}  // namespace perfbench
