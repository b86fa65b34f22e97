// E12 — Traffic-density sweep (the arXiv:1602.04762 axis as a first-class
// experiment): NMAC rate and advisory (alert) rate versus intruder count
// K for the nearest-threat policy against the cost-fused multi-threat
// resolver and the joint-threat table policy, under identical statistical
// traffic (paired seeds), plus the headline converging-ring comparison
// that E11 exposed, PR 4 narrowed (cost fusion), and the joint table
// narrows further (the symmetric co-altitude squeeze).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "acasx/joint_solver.h"
#include "bench_common.h"
#include "core/validation_campaign.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "util/csv.h"

namespace {

const char* policy_name(cav::sim::ThreatPolicy policy) {
  switch (policy) {
    case cav::sim::ThreatPolicy::kNearest: return "nearest";
    case cav::sim::ThreatPolicy::kCostFused: return "cost-fused";
    case cav::sim::ThreatPolicy::kJointTable: return "joint-table";
  }
  return "?";
}

constexpr cav::sim::ThreatPolicy kPolicies[] = {
    cav::sim::ThreatPolicy::kNearest,
    cav::sim::ThreatPolicy::kCostFused,
    cav::sim::ThreatPolicy::kJointTable,
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cav;
  bench::init(argc, argv);

  std::size_t encounters = bench::smoke() ? 24 : 400;
  if (const char* env = std::getenv("CAV_E12_ENCOUNTERS")) {
    encounters = static_cast<std::size_t>(std::atol(env));
  }

  bench::banner("E12: NMAC/advisory rate vs traffic density, "
                "nearest vs cost-fused vs joint-table");
  const auto table = bench::standard_table();

  // The joint-threat table rides the same smoke convention as the
  // pairwise one: coarse under bench-smoke, full-size otherwise.
  const auto joint_t0 = std::chrono::steady_clock::now();
  const auto joint = std::make_shared<const acasx::JointLogicTable>(acasx::solve_joint_table(
      bench::smoke() ? acasx::JointConfig::coarse() : acasx::JointConfig::standard(),
      &bench::pool()));
  std::printf("joint table solved in %.3f s (%zu entries)\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() - joint_t0).count(),
              joint->num_entries());

  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);
  const sim::CasFactory joint_equipped = sim::AcasXuCas::factory(table, {.joint = joint});
  const auto factory_for = [&](sim::ThreatPolicy policy) -> const sim::CasFactory& {
    return policy == sim::ThreatPolicy::kJointTable ? joint_equipped : equipped;
  };
  const encounter::StatisticalEncounterModel model;

  std::printf("workload: %zu encounters per (K, policy), equipped own-ship and intruders,\n"
              "identical traffic across policies (paired seeds)\n\n",
              encounters);
  std::printf("%-4s %-12s %-12s %-12s %-12s %-12s %-10s\n", "K", "policy", "NMAC rate",
              "alert rate", "mean sep", "enc/s", "wall [s]");

  const std::string csv_path = bench::output_dir() + "/density_sweep.csv";
  CsvWriter csv(csv_path);
  csv.header({"intruders", "policy", "encounters", "nmac_rate", "alert_rate",
              "mean_min_separation_m", "enc_per_s", "wall_s"});

  const auto ks = bench::smoke() ? std::vector<std::size_t>{1, 2, 4}
                                 : std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8};
  for (const std::size_t k : ks) {
    double nearest_nmac = 0.0;
    for (const sim::ThreatPolicy policy : kPolicies) {
      core::MonteCarloConfig config;
      config.encounters = encounters;
      config.intruders = k;
      config.seed = 777;
      config.sim.threat_policy = policy;

      const auto t0 = std::chrono::steady_clock::now();
      const core::ValidationCampaign campaign(model, config, policy_name(policy),
                                              factory_for(policy), factory_for(policy));
      const auto rates = campaign.run(&bench::pool()).rates;
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      const double enc_per_s = static_cast<double>(encounters) / wall_s;

      std::printf("%-4zu %-12s %-12.4f %-12.4f %-12.1f %-12.1f %-10.3f\n", k,
                  policy_name(policy), rates.nmac_rate(), rates.alert_rate(),
                  rates.mean_min_separation_m, enc_per_s, wall_s);
      csv.cell(k).cell(policy_name(policy)).cell(encounters).cell(rates.nmac_rate())
          .cell(rates.alert_rate()).cell(rates.mean_min_separation_m).cell(enc_per_s)
          .cell(wall_s);
      csv.end_row();

      const std::string prefix =
          "e12.k" + std::to_string(k) + "." + policy_name(policy) + ".";
      bench::record_metric(prefix + "nmac_rate", rates.nmac_rate());
      bench::record_metric(prefix + "alert_rate", rates.alert_rate());
      bench::record_metric(prefix + "wall_s", wall_s);

      if (policy == sim::ThreatPolicy::kNearest) {
        nearest_nmac = rates.nmac_rate();
      } else if (k > 1 && rates.nmac_rate() > nearest_nmac) {
        std::printf("  note: %s above nearest at K=%zu\n", policy_name(policy), k);
      }
    }
  }
  std::printf("\nCSV: %s\n", csv_path.c_str());

  // The converging ring (the E11 gap): paired seeds, all aircraft equipped.
  const std::size_t ring_k = 4;
  const int ring_seeds = bench::smoke() ? 12 : 60;
  const scenarios::Scenario ring = scenarios::converging_ring(ring_k);
  std::printf("\nconverging-ring K=%zu over %d paired seeds (all equipped):\n", ring_k,
              ring_seeds);
  for (const sim::ThreatPolicy policy : kPolicies) {
    int nmacs = 0;
    int vetoes = 0;
    int disagreements = 0;
    int joint_cycles = 0;
    for (int seed = 1; seed <= ring_seeds; ++seed) {
      sim::SimConfig config;
      config.threat_policy = policy;
      const auto r =
          scenarios::run_scenario(ring, config, factory_for(policy), factory_for(policy), seed);
      if (r.own_nmac()) ++nmacs;
      vetoes += r.agents[0].resolver.vetoes;
      disagreements += r.agents[0].resolver.disagreements;
      joint_cycles += r.agents[0].resolver.joint_cycles;
    }
    std::printf("  %-12s own NMACs %2d/%d  (resolver vetoes %d, fused-vs-nearest "
                "disagreements %d, joint cycles %d)\n",
                policy_name(policy), nmacs, ring_seeds, vetoes, disagreements, joint_cycles);
    bench::record_metric(std::string("e12.ring_k4.") + policy_name(policy) + ".nmacs",
                         nmacs);
  }
  return 0;
}
