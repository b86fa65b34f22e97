// E14 — Degraded-mode fault-injection campaign: NMAC and advisory rates
// under bursty coordination loss, comms blackouts, ADS-B dropout bursts,
// and mixed equipage, for every threat policy (nearest, cost-fused,
// joint-table) plus the decision-only TCAS-like and SVO baselines, under
// identical traffic (paired seeds).  The paper validates the CAS in a perfect world;
// E14 measures how fast each policy's safety case erodes when the world
// degrades — and whether the multi-threat policies, which lean on the
// coordination link and the surveillance picture, erode faster than the
// policies that never needed them.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "acasx/joint_solver.h"
#include "baselines/svo.h"
#include "baselines/tcas_like.h"
#include "bench_common.h"
#include "core/monte_carlo.h"
#include "core/validation_campaign.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "util/csv.h"

namespace {

using cav::sim::ThreatPolicy;

const char* policy_name(ThreatPolicy policy) {
  switch (policy) {
    case ThreatPolicy::kNearest: return "nearest";
    case ThreatPolicy::kCostFused: return "cost-fused";
    case ThreatPolicy::kJointTable: return "joint-table";
  }
  return "?";
}

constexpr ThreatPolicy kPolicies[] = {
    ThreatPolicy::kNearest,
    ThreatPolicy::kCostFused,
    ThreatPolicy::kJointTable,
};

/// One fault-axis point: a label plus the knobs it turns.  Everything not
/// mentioned stays at the perfect-world default, so each row isolates one
/// degradation axis (the "loss x blackout x dropout x equipage" sweep is
/// factored into per-axis slices to stay readable and CI-affordable).
struct AxisPoint {
  std::string axis;
  std::string label;
  cav::core::MonteCarloConfig config;  ///< seed/policy filled per run
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cav;
  bench::init(argc, argv);

  std::size_t encounters = bench::smoke() ? 16 : 300;
  if (const char* env = std::getenv("CAV_E14_ENCOUNTERS")) {
    encounters = static_cast<std::size_t>(std::atol(env));
  }
  const std::size_t intruders = 2;

  bench::banner("E14: degraded-mode campaign — link loss, blackouts, ADS-B "
                "dropouts, mixed equipage");
  const auto table = bench::standard_table();
  const auto joint_t0 = std::chrono::steady_clock::now();
  const auto joint = std::make_shared<const acasx::JointLogicTable>(acasx::solve_joint_table(
      bench::smoke() ? acasx::JointConfig::coarse() : acasx::JointConfig::standard(),
      &bench::pool()));
  std::printf("joint table solved in %.3f s (%zu entries)\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() - joint_t0).count(),
              joint->num_entries());

  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);
  const sim::CasFactory joint_equipped = sim::AcasXuCas::factory(table, {.joint = joint});
  const sim::CasFactory tcas = baselines::TcasLikeCas::factory();
  const sim::CasFactory svo = baselines::SvoCas::factory();
  const auto factory_for = [&](ThreatPolicy policy) -> const sim::CasFactory& {
    return policy == ThreatPolicy::kJointTable ? joint_equipped : equipped;
  };
  const encounter::StatisticalEncounterModel model;

  // --- The fault axes ------------------------------------------------
  // Axis 1 (comms-loss): uniform per-link loss, then Gilbert–Elliott
  // bursts at a comparable average loss so burstiness itself is isolated.
  // Axis 2 (blackout): a fleet-wide comms blackout window parked over the
  // typical CPA times of the statistical model.
  // Axis 3 (adsb): surveillance dropout bursts plus a staleness horizon,
  // so coasted tracks eventually drop instead of coasting forever.
  // Axis 4 (equipage): thinning intruder equipage, passive and
  // adversarial (maneuver-at-CPA) unequipped behavior.
  std::vector<AxisPoint> points;
  const auto add = [&points](std::string axis, std::string label) -> core::MonteCarloConfig& {
    points.push_back({std::move(axis), std::move(label), {}});
    return points.back().config;
  };
  add("baseline", "perfect-world");
  {
    const std::vector<double> losses =
        bench::smoke() ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.5, 0.75};
    for (const double p : losses) {
      add("comms-loss", "uniform-" + std::to_string(static_cast<int>(p * 100)) + "pct")
          .sim.coordination.message_loss_prob = p;
    }
    for (const double enter : bench::smoke() ? std::vector<double>{0.3}
                                             : std::vector<double>{0.15, 0.3}) {
      auto& c = add("comms-loss",
                    "burst-enter-" + std::to_string(static_cast<int>(enter * 100)) + "pct");
      c.sim.coordination.burst_enter_prob = enter;
      c.sim.coordination.burst_exit_prob = 0.2;
      c.sim.coordination.burst_loss_prob = 1.0;
    }
  }
  for (const double dur : bench::smoke() ? std::vector<double>{30.0}
                                         : std::vector<double>{15.0, 30.0}) {
    auto& c = add("blackout", std::to_string(static_cast<int>(dur)) + "s");
    c.sim.fault.comms_blackouts.push_back({30.0, 30.0 + dur});
  }
  {
    auto& c = add("adsb", "dropout-20pct");
    c.sim.fault.adsb_dropout_burst_prob = 0.2;
    if (!bench::smoke()) {
      auto& s = add("adsb", "dropout-20pct-stale-8s");
      s.sim.fault.adsb_dropout_burst_prob = 0.2;
      s.sim.fault.track_staleness_horizon_s = 8.0;
    }
  }
  for (const double frac : bench::smoke() ? std::vector<double>{0.5}
                                          : std::vector<double>{0.75, 0.5, 0.25}) {
    add("equipage", "passive-" + std::to_string(static_cast<int>(frac * 100)) + "pct")
        .equipage_fraction = frac;
  }
  {
    auto& c = add("equipage", "adversarial-50pct");
    c.equipage_fraction = 0.5;
    c.unequipped_behavior = core::UnequippedBehavior::kManeuverAtCpa;
  }

  std::printf("workload: %zu encounters x K=%zu per (point, policy), paired seed 777;\n"
              "95%% Wilson intervals in brackets\n\n",
              encounters, intruders);
  std::printf("%-10s %-22s %-12s %-26s %-26s %-8s\n", "axis", "point", "policy",
              "NMAC rate [95% CI]", "alert rate [95% CI]", "wall[s]");

  const std::string csv_path = bench::output_dir() + "/degraded_modes.csv";
  CsvWriter csv(csv_path);
  csv.header({"axis", "point", "policy", "encounters", "nmac_rate", "nmac_lo", "nmac_hi",
              "alert_rate", "alert_lo", "alert_hi", "mean_min_separation_m", "wall_s"});

  const auto run_point = [&](const AxisPoint& point, const std::string& policy_label,
                             const sim::CasFactory& own, const sim::CasFactory& intr,
                             ThreatPolicy policy) {
    core::MonteCarloConfig config = point.config;
    config.encounters = encounters;
    config.intruders = intruders;
    config.seed = 777;
    config.sim.threat_policy = policy;

    const auto t0 = std::chrono::steady_clock::now();
    const auto rates = core::ValidationCampaign(model, config, policy_label, own, intr)
                           .run(&bench::pool())
                           .rates;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    const auto nci = rates.nmac_ci();
    const auto aci = rates.alert_ci();
    char nmac_buf[32], alert_buf[32];
    std::snprintf(nmac_buf, sizeof nmac_buf, "%.4f [%.3f,%.3f]", rates.nmac_rate(), nci.lo,
                  nci.hi);
    std::snprintf(alert_buf, sizeof alert_buf, "%.4f [%.3f,%.3f]", rates.alert_rate(), aci.lo,
                  aci.hi);
    std::printf("%-10s %-22s %-12s %-26s %-26s %-8.2f\n", point.axis.c_str(),
                point.label.c_str(), policy_label.c_str(), nmac_buf, alert_buf, wall_s);
    csv.cell(point.axis).cell(point.label).cell(policy_label).cell(rates.encounters)
        .cell(rates.nmac_rate()).cell(nci.lo).cell(nci.hi).cell(rates.alert_rate())
        .cell(aci.lo).cell(aci.hi).cell(rates.mean_min_separation_m).cell(wall_s);
    csv.end_row();

    const std::string prefix = "e14." + point.axis + "." + point.label + "." + policy_label + ".";
    bench::record_metric(prefix + "nmac_rate", rates.nmac_rate());
    bench::record_metric(prefix + "alert_rate", rates.alert_rate());
  };

  for (const AxisPoint& point : points) {
    for (const ThreatPolicy policy : kPolicies) {
      run_point(point, policy_name(policy), factory_for(policy), factory_for(policy), policy);
    }
    // Decision-only baselines: no coordination, no multi-threat table —
    // the controls for "does degradation hit the table-driven policies
    // harder than a policy that never used the degraded machinery?"
    run_point(point, "tcas-like", tcas, tcas, ThreatPolicy::kNearest);
    run_point(point, "svo", svo, svo, ThreatPolicy::kNearest);
    std::printf("\n");
  }
  std::printf("CSV: %s\n", csv_path.c_str());

  // --- The GA-found degraded fixtures, pinned per policy -------------
  // The regression view of the attack campaign: each fixture replays its
  // frozen (geometry, conditions, seed) under all three policies.
  std::printf("GA-found degraded fixtures (frozen conditions + seed):\n");
  for (const std::string& name : scenarios::degraded_scenario_names()) {
    const scenarios::DegradedScenario fixture = scenarios::make_degraded_scenario(name);
    for (const ThreatPolicy policy : kPolicies) {
      sim::SimConfig config;
      config.threat_policy = policy;
      const auto r = scenarios::run_degraded_scenario(fixture, config, factory_for(policy),
                                                      factory_for(policy));
      std::printf("  %-26s %-12s own NMAC %d  min sep %7.1f m\n", name.c_str(),
                  policy_name(policy), r.own_nmac() ? 1 : 0, r.own_miss_distance_m());
      bench::record_metric("e14.fixture." + name + "." + policy_name(policy) + ".nmac",
                           r.own_nmac() ? 1.0 : 0.0);
    }
  }
  return 0;
}
