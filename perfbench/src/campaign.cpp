// Workload `campaign`: sharded validation campaigns of two-aircraft
// encounters (the paper's pairwise Monte-Carlo setup), ACAS Xu on both
// sides read from the f32 image dumped in set-up, nproc cav_worker
// processes.  One op is one encounter.  Per-encounter set-up, the engine's
// small-K path and the worker protocol dominate here — the opposite use of
// the sim layer from `city`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "dist/campaign_driver.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace {

using namespace cav;

/// Encounters per campaign call: large enough that fleet start-up (spawn
/// to first stripe result) is a minor share of a call.
constexpr std::size_t kEncounters = 24576;
constexpr std::size_t kProbeEncounters = 2048;

/// Reference counts for the rate checks: one 100-second run of this
/// workload at seed 1000001 (26 calls of kEncounters; README "Reference
/// rates").  Only rates are compared, never a per-seed count, so
/// re-seeding the random streams keeps the check valid.
constexpr std::size_t kRefEncounters = 638976;
constexpr std::size_t kRefNmacs = 8614;
constexpr std::size_t kRefAlerts = 342049;

/// Two-sided 99.9% normal quantile.
constexpr double kZ999 = 3.2905267314919255;

/// The observed rate is consistent with the reference when their 99.9%
/// Wilson intervals overlap.
bool consistent(std::size_t hits, std::size_t trials, std::size_t ref_hits,
                std::size_t ref_trials) {
  const Interval obs = wilson_interval(hits, trials, kZ999);
  const Interval ref = wilson_interval(ref_hits, ref_trials, kZ999);
  return obs.lo <= ref.hi && ref.lo <= obs.hi;
}

dist::CampaignSpec campaign_spec(const std::string& image, std::size_t encounters,
                                 std::uint64_t seed) {
  dist::CampaignSpec spec;
  spec.config.encounters = encounters;
  spec.config.intruders = 1;
  spec.config.seed = seed;
  spec.system_name = "acas-xu";
  spec.own_cas = dist::CasSpec::acas_xu(image);
  spec.intruder_cas = dist::CasSpec::acas_xu(image);
  return spec;
}

}  // namespace

void run_campaign(Context& ctx, const Plan& plan) {
  Tracer& tracer = ctx.tracer;
  const std::uint64_t first_request = tracer.last_request() + 1;
  const std::size_t encounters = plan.primary ? kEncounters : kProbeEncounters;
  const std::size_t workers = nproc();

  // Set-up: serial solve + image dump, repeated; the median is reported.
  std::vector<double> setup_s;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    const std::uint64_t request = tracer.next_request();
    ScopedSpan root(tracer, "bench.setup", request);
    const double t0 = wall_s();
    if (plan.primary || !ctx.table) {
      ctx.table.reset();
      ctx.table = solve_table(ctx, acasx::AcasXuConfig::standard(), request);
    }
    if (plan.primary || ctx.image_path.empty()) {
      ctx.image_path = dump_image(ctx, *ctx.table, "standard_f32.cavt", request);
    }
    setup_s.push_back(wall_s() - t0);
  }

  // Timed window: campaign calls back to back; a unit is one call.
  std::vector<double> unit_ops_per_s, unit_cpu_us;
  std::size_t merged = 0;
  std::size_t nmacs = 0;
  std::size_t alerts = 0;
  double sim_busy_total = 0.0;
  std::vector<double> sim_busy_s, efficiency, spawn_s, first_result_s, drain_s;
  std::size_t work_units = 0;
  std::size_t requeues = 0;
  const double window_start = wall_s();
  for (std::uint64_t call = 0;; ++call) {
    const std::uint64_t request = tracer.next_request();
    // Each call samples its own traffic; the seed is a pure function of
    // the workload seed and the call index.
    const dist::CampaignSpec spec =
        campaign_spec(ctx.image_path, encounters, mix64(ctx.options.seed ^ mix64(call)));
    dist::CampaignDriverOptions options;
    options.num_workers = workers;
    options.worker_path = PERFBENCH_WORKER_PATH;
    std::vector<double> spawn_t, result_t;
    if (tracer.enabled()) {
      options.on_spawn = [&](pid_t) {
        spawn_t.push_back(tracer.instant("dist.worker_spawn", request));
      };
      options.on_result = [&](std::size_t, std::size_t) {
        result_t.push_back(tracer.instant("dist.stripe_result", request));
      };
    }

    const ChildUsage children0 = children_usage();
    const double cpu0 = process_cpu_s();
    const double call_start = tracer.now_s();
    const double w0 = wall_s();
    core::CampaignResult result;
    {
      ScopedSpan span(tracer, "dist.run_sharded_campaign", request);
      result = dist::run_sharded_campaign(spec, options);
    }
    const double wall = wall_s() - w0;
    const double cpu = (process_cpu_s() - cpu0) + (children_usage().cpu_s - children0.cpu_s);

    const core::SystemRates& rates = result.rates;
    const auto ops = static_cast<double>(rates.encounters);
    unit_ops_per_s.push_back(ops / wall);
    unit_cpu_us.push_back(1e6 * cpu / ops);
    merged += rates.encounters;
    nmacs += rates.nmacs;
    alerts += rates.alerts;
    sim_busy_total += rates.sim_wall_s;
    sim_busy_s.push_back(rates.sim_wall_s);
    efficiency.push_back(rates.sim_wall_s / (static_cast<double>(workers) * wall));
    work_units = result.work_units;
    requeues += result.requeues;
    const bool clean = result.requeues == 0 && !result.degraded && rates.encounters == encounters;
    ctx.count(encounters, clean ? 0 : encounters,
              "campaign: requeue, degraded fleet, or encounters not merged");

    // The queue empties once every stripe has been handed out, i.e. at
    // result (stripes - workers + 1); from then on workers go idle.
    if (!spawn_t.empty()) spawn_s.push_back(spawn_t.back() - call_start);
    if (!result_t.empty()) {
      first_result_s.push_back(result_t.front() - call_start);
      const std::size_t first_idle = result_t.size() - std::min(workers, result_t.size());
      drain_s.push_back(result_t.back() - result_t[first_idle]);
    }
    if (!plan.primary || wall_s() - window_start >= plan.window_s) break;
  }

  const bool nmac_ok = consistent(nmacs, merged, kRefNmacs, kRefEncounters);
  const bool alert_ok = consistent(alerts, merged, kRefAlerts, kRefEncounters);
  ctx.count(0, nmac_ok && alert_ok ? 0 : merged,
            "campaign: NMAC or alert rate inconsistent with the reference");
  char counts[160];
  std::snprintf(counts, sizeof(counts), "{\"encounters\": %zu, \"nmacs\": %zu, \"alerts\": %zu}",
                merged, nmacs, alerts);
  ctx.notes.emplace_back(plan.primary ? "campaign_counts" : "campaign_probe_counts", counts);

  const ChildUsage children = children_usage();
  if (plan.primary) {
    record_end_to_end(ctx, setup_s, std::max(peak_rss_mb(), children.peak_rss_mb),
                      unit_ops_per_s, unit_cpu_us);
    record_setup_layers(ctx, first_request);
  }

  if (!tracer.enabled()) return;
  const auto put = [&](const char* name, double value, const char* unit) {
    put_layer(ctx, plan, name, value, unit);
  };
  put("sim.encounter_ms", 1e3 * sim_busy_total / static_cast<double>(merged), "ms");
  put("core.sim_busy_s", median(sim_busy_s), "s");
  put("core.fleet_efficiency", median(efficiency), "ratio");
  put("dist.campaign_s", median(tracer.durations("dist.run_sharded_campaign", first_request)),
      "s");
  put("dist.spawn_s", median(spawn_s), "s");
  put("dist.first_result_s", median(first_result_s), "s");
  put("dist.drain_s", median(drain_s), "s");
  put("dist.work_units", static_cast<double>(work_units), "count");
  put("dist.requeues", static_cast<double>(requeues), "count");
  put("dist.worker_peak_rss_mb", children.peak_rss_mb, "MB");
}

}  // namespace perfbench
