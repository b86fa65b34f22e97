#include "core/validation_campaign.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "encounter/encounter.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::core {
namespace {

/// Deterministic equipage draw for intruder k of encounter i: a dedicated
/// stream per (seed, i, k), so the pattern is identical across policies,
/// thread counts, shard counts, and K growth, and no other draw shifts.
/// The boundary fractions never draw — 1.0 is the pre-fault
/// equip-everyone path.
bool intruder_equipped(const MonteCarloConfig& config, std::uint64_t seed,
                       std::size_t encounter_index, std::size_t intruder_index) {
  if (config.equipage_fraction >= 1.0) return true;
  if (config.equipage_fraction <= 0.0) return false;
  RngStream rng = RngStream::derive(seed, "mc-equipage", encounter_index, intruder_index);
  return rng.chance(config.equipage_fraction);
}

/// Equip one intruder slot: the intruder CAS when the equipage draw says
/// so, otherwise the configured unequipped behavior (passive, or the
/// scripted adversary that maneuvers toward the own-ship around its CPA).
void equip_intruder(const MonteCarloConfig& config, std::uint64_t seed,
                    std::size_t encounter_index, std::size_t intruder_index, double t_cpa_s,
                    const sim::CasFactory& intruder_cas, sim::AgentSetup* setup) {
  if (intruder_equipped(config, seed, encounter_index, intruder_index)) {
    if (intruder_cas) setup->cas = intruder_cas();
  } else if (config.unequipped_behavior == UnequippedBehavior::kManeuverAtCpa) {
    sim::ScriptedManeuverConfig script;
    script.start_s = std::max(0.0, t_cpa_s - 10.0);
    script.duration_s = 20.0;
    script.decision_period_s = config.sim.decision_period_s;
    setup->cas = std::make_unique<sim::ScriptedManeuverCas>(script);
    setup->count_alerts = false;  // attacks are not avoidance alerts
  }
  if (config.intruder_fault.has_value()) setup->fault = config.intruder_fault;
}

constexpr std::uint64_t kMcTag = 0x4D43'4D43ULL;  // "MCMC"

}  // namespace

ValidationCampaign::ValidationCampaign(const encounter::StatisticalEncounterModel& model,
                                       MonteCarloConfig config, std::string system_name,
                                       sim::CasFactory own_cas, sim::CasFactory intruder_cas)
    : model_(model),
      multi_model_(config.intruders, model.config()),
      config_(std::move(config)),
      system_name_(std::move(system_name)),
      own_cas_(std::move(own_cas)),
      intruder_cas_(std::move(intruder_cas)) {
  expect(config_.encounters >= 1, "encounters >= 1");
  expect(config_.intruders >= 1, "intruders >= 1");
  num_cells_ = std::min<std::size_t>(config_.encounters, 64);
}

std::vector<EncounterStripe> ValidationCampaign::make_stripes(std::size_t shards) const {
  expect(shards >= 1, "shards >= 1");
  std::vector<EncounterStripe> stripes;
  stripes.reserve(std::min(shards, num_cells_));
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t cell_lo = s * num_cells_ / shards;
    const std::size_t cell_hi = (s + 1) * num_cells_ / shards;
    if (cell_hi == cell_lo) continue;  // more shards than cells
    stripes.push_back({config_.seed, cell_begin(cell_lo), cell_begin(cell_hi)});
  }
  return stripes;
}

StripeResult ValidationCampaign::run_stripe(const EncounterStripe& stripe,
                                            ThreadPool* pool) const {
  expect(stripe.begin <= stripe.end && stripe.end <= config_.encounters,
         "stripe inside the encounter range");

  // The stripe's seed overrides the campaign seed for every draw.
  MonteCarloConfig config = config_;
  config.seed = stripe.seed;

  const auto run_pairwise = [&](std::size_t i, StripeCell& local) {
    // The geometry stream depends only on (seed, i): every system sees the
    // same traffic sample.
    RngStream geometry_rng = RngStream::derive(config.seed, "mc-geometry", i);
    const encounter::EncounterParams params = model_.sample(geometry_rng);
    const encounter::InitialStates init = encounter::generate_initial_states(params);

    sim::SimConfig sim_config = config.sim;
    sim_config.max_time_s = params.t_cpa_s + config.sim_time_margin_s;

    sim::AgentSetup own;
    own.initial_state = init.own;
    if (own_cas_) own.cas = own_cas_();
    if (config.own_fault.has_value()) own.fault = config.own_fault;
    sim::AgentSetup intruder;
    intruder.initial_state = init.intruder;
    equip_intruder(config, config.seed, i, /*intruder_index=*/0, params.t_cpa_s, intruder_cas_,
                   &intruder);

    const std::uint64_t sim_seed = mix64(config.seed ^ mix64(kMcTag ^ i));
    const sim::SimResult result =
        sim::run_encounter(sim_config, std::move(own), std::move(intruder), sim_seed);

    if (result.nmac) ++local.nmacs;
    if (result.agents[0].ever_alerted || result.agents[1].ever_alerted) ++local.alerts;
    local.sep_sum += result.proximity.min_distance_m;
    local.wall_s += result.wall_time_s;
  };

  const auto run_multi = [&](std::size_t i, StripeCell& local) {
    // Per-intruder geometry streams depend only on (seed, i, k): the
    // traffic sample is paired across systems and across thread counts,
    // and intruder k's geometry does not change when K grows.
    const encounter::MultiEncounterParams params = multi_model_.sample(config.seed, i);
    const std::vector<sim::UavState> states = encounter::generate_multi_initial_states(params);

    sim::SimConfig sim_config = config.sim;
    sim_config.max_time_s = params.max_t_cpa_s() + config.sim_time_margin_s;

    std::vector<sim::AgentSetup> agents(states.size());
    agents[0].initial_state = states[0];
    if (own_cas_) agents[0].cas = own_cas_();
    if (config.own_fault.has_value()) agents[0].fault = config.own_fault;
    for (std::size_t a = 1; a < states.size(); ++a) {
      agents[a].initial_state = states[a];
      equip_intruder(config, config.seed, i, a - 1, params.intruders[a - 1].t_cpa_s,
                     intruder_cas_, &agents[a]);
    }

    const std::uint64_t sim_seed = mix64(config.seed ^ mix64(kMcTag ^ i));
    const sim::SimResult result =
        sim::run_multi_encounter(sim_config, std::move(agents), sim_seed);

    if (result.own_nmac()) ++local.nmacs;
    bool any_alert = false;
    for (const sim::AgentReport& r : result.agents) any_alert = any_alert || r.ever_alerted;
    if (any_alert) ++local.alerts;
    local.sep_sum += result.own_min_separation_m();
    local.wall_s += result.wall_time_s;
  };

  // Locate the stripe's cells; the boundaries must be canonical.
  std::size_t first_cell = 0;
  while (first_cell < num_cells_ && cell_begin(first_cell) < stripe.begin) ++first_cell;
  expect(cell_begin(first_cell) == stripe.begin, "stripe.begin on a cell boundary");
  std::size_t end_cell = first_cell;
  while (end_cell < num_cells_ && cell_begin(end_cell) < stripe.end) ++end_cell;
  expect(cell_begin(end_cell) == stripe.end || (end_cell == num_cells_ &&
                                                stripe.end == config_.encounters),
         "stripe.end on a cell boundary");

  StripeResult result;
  result.first_cell = first_cell;
  result.cells.resize(end_cell - first_cell);

  const auto run_cell = [&](std::size_t c) {
    const std::size_t begin = cell_begin(first_cell + c);
    const std::size_t end = cell_begin(first_cell + c + 1);
    StripeCell local;  // accumulate on the stack; one write-back per cell
    for (std::size_t i = begin; i < end; ++i) {
      if (config.intruders == 1) {
        run_pairwise(i, local);
      } else {
        run_multi(i, local);
      }
    }
    result.cells[c] = local;
  };

  if (pool != nullptr) {
    pool->parallel_for(result.cells.size(), run_cell);
  } else {
    for (std::size_t c = 0; c < result.cells.size(); ++c) run_cell(c);
  }
  return result;
}

SystemRates ValidationCampaign::merge(const std::vector<StripeResult>& results) const {
  std::vector<const StripeResult*> ordered;
  ordered.reserve(results.size());
  for (const StripeResult& r : results) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(),
            [](const StripeResult* a, const StripeResult* b) {
              return a->first_cell < b->first_cell;
            });

  SystemRates rates;
  rates.system = system_name_;
  rates.encounters = config_.encounters;

  // The canonical flat merge: cells in index order, exactly the loop the
  // single-process path has always run — grouping-invariant by
  // construction, so shard count and completion order cannot perturb the
  // double sums.
  std::size_t next_cell = 0;
  double sep_sum = 0.0;
  for (const StripeResult* r : ordered) {
    expect(r->first_cell == next_cell, "stripe results tile the campaign");
    for (const StripeCell& c : r->cells) {
      rates.nmacs += c.nmacs;
      rates.alerts += c.alerts;
      sep_sum += c.sep_sum;
      rates.sim_wall_s += c.wall_s;
    }
    next_cell += r->cells.size();
  }
  expect(next_cell == num_cells_, "stripe results cover every cell");

  rates.mean_min_separation_m =
      config_.encounters ? sep_sum / static_cast<double>(config_.encounters) : 0.0;
  return rates;
}

CampaignResult ValidationCampaign::run(ThreadPool* pool) const {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult result;
  result.work_units = 1;
  result.rates =
      merge({run_stripe({config_.seed, 0, config_.encounters}, pool)});
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace cav::core
