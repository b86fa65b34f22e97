#include "core/fitness.h"

#include <algorithm>
#include <limits>

#include "util/expect.h"
#include "util/rng.h"

namespace cav::core {
namespace {

/// Equipage draw for one intruder slot of one fitness run: a dedicated
/// stream per (run_seed, intruder index) — run_seed already mixes
/// (config.seed, stream_id, run_index) — so no other draw shifts and the
/// boundary fractions never draw (1.0 is the pre-fault path).
bool fitness_intruder_equipped(const FitnessConfig& config, std::uint64_t run_seed,
                               std::size_t intruder_index) {
  if (config.equipage_fraction >= 1.0) return true;
  if (config.equipage_fraction <= 0.0) return false;
  RngStream rng = RngStream::derive(run_seed, "fit-equipage", intruder_index);
  return rng.chance(config.equipage_fraction);
}

}  // namespace

EncounterEvaluator::EncounterEvaluator(FitnessConfig config, sim::CasFactory own_cas,
                                       sim::CasFactory intruder_cas)
    : config_(std::move(config)), own_cas_(std::move(own_cas)),
      intruder_cas_(std::move(intruder_cas)) {
  expect(config_.runs_per_encounter >= 1, "runs_per_encounter >= 1");
  expect(config_.gain_max > 0.0, "gain_max > 0");
}

sim::SimResult EncounterEvaluator::run_once(const encounter::EncounterParams& params,
                                            std::uint64_t stream_id, std::size_t run_index,
                                            bool record_trajectory) const {
  const encounter::InitialStates init = encounter::generate_initial_states(params);

  sim::SimConfig sim_config = config_.sim;
  sim_config.max_time_s = params.t_cpa_s + config_.sim_time_margin_s;
  sim_config.record_trajectory = record_trajectory;

  const std::uint64_t run_seed =
      mix64(config_.seed ^ mix64(stream_id * 0x9e3779b97f4a7c15ULL + run_index));

  sim::AgentSetup own;
  own.initial_state = init.own;
  if (own_cas_) own.cas = own_cas_();
  if (config_.own_fault.has_value()) own.fault = config_.own_fault;
  sim::AgentSetup intruder;
  intruder.initial_state = init.intruder;
  if (intruder_cas_ && fitness_intruder_equipped(config_, run_seed, 0)) {
    intruder.cas = intruder_cas_();
  }
  if (config_.intruder_fault.has_value()) intruder.fault = config_.intruder_fault;

  return sim::run_encounter(sim_config, std::move(own), std::move(intruder), run_seed);
}

EncounterEvaluation EncounterEvaluator::evaluate(const encounter::EncounterParams& params,
                                                 std::uint64_t stream_id) const {
  EncounterEvaluation eval;
  eval.runs = config_.runs_per_encounter;
  eval.min_miss_m = std::numeric_limits<double>::infinity();

  double gain_sum = 0.0;
  double miss_sum = 0.0;
  std::size_t own_alerts = 0;

  for (std::size_t k = 0; k < config_.runs_per_encounter; ++k) {
    const sim::SimResult result = run_once(params, stream_id, k, /*record_trajectory=*/false);
    const double d_k = result.miss_distance_m();
    gain_sum += config_.gain_max / (1.0 + d_k);
    miss_sum += d_k;
    eval.min_miss_m = std::min(eval.min_miss_m, d_k);
    if (result.nmac) ++eval.nmac_count;
    if (result.agents[0].ever_alerted) ++own_alerts;
    eval.wall_s += result.wall_time_s;
  }

  const auto n = static_cast<double>(config_.runs_per_encounter);
  eval.fitness = gain_sum / n;
  eval.mean_miss_m = miss_sum / n;
  eval.alert_fraction_own = static_cast<double>(own_alerts) / n;
  return eval;
}

MultiEncounterEvaluator::MultiEncounterEvaluator(FitnessConfig config, sim::CasFactory own_cas,
                                                 sim::CasFactory intruder_cas)
    : config_(std::move(config)), own_cas_(std::move(own_cas)),
      intruder_cas_(std::move(intruder_cas)) {
  expect(config_.runs_per_encounter >= 1, "runs_per_encounter >= 1");
  expect(config_.gain_max > 0.0, "gain_max > 0");
}

sim::SimResult MultiEncounterEvaluator::run_once(const encounter::MultiEncounterParams& params,
                                                 std::uint64_t stream_id, std::size_t run_index,
                                                 bool record_trajectory) const {
  const std::vector<sim::UavState> states = encounter::generate_multi_initial_states(params);

  sim::SimConfig sim_config = config_.sim;
  sim_config.max_time_s = params.max_t_cpa_s() + config_.sim_time_margin_s;
  sim_config.record_trajectory = record_trajectory;

  const std::uint64_t run_seed =
      mix64(config_.seed ^ mix64(stream_id * 0x9e3779b97f4a7c15ULL + run_index));

  std::vector<sim::AgentSetup> agents(states.size());
  agents[0].initial_state = states[0];
  if (own_cas_) agents[0].cas = own_cas_();
  if (config_.own_fault.has_value()) agents[0].fault = config_.own_fault;
  for (std::size_t i = 1; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    if (intruder_cas_ && fitness_intruder_equipped(config_, run_seed, i - 1)) {
      agents[i].cas = intruder_cas_();
    }
    if (config_.intruder_fault.has_value()) agents[i].fault = config_.intruder_fault;
  }

  return sim::run_multi_encounter(sim_config, std::move(agents), run_seed);
}

MultiEncounterEvaluation MultiEncounterEvaluator::evaluate(
    const encounter::MultiEncounterParams& params, std::uint64_t stream_id) const {
  MultiEncounterEvaluation eval;
  eval.runs = config_.runs_per_encounter;
  eval.min_miss_m = std::numeric_limits<double>::infinity();

  double gain_sum = 0.0;
  double miss_sum = 0.0;
  std::size_t own_alerts = 0;

  for (std::size_t k = 0; k < config_.runs_per_encounter; ++k) {
    const sim::SimResult result = run_once(params, stream_id, k, /*record_trajectory=*/false);
    const double d_k = result.own_miss_distance_m();
    gain_sum += config_.gain_max / (1.0 + d_k);
    miss_sum += d_k;
    eval.min_miss_m = std::min(eval.min_miss_m, d_k);
    if (result.own_nmac()) ++eval.own_nmac_count;
    if (result.agents[0].ever_alerted) ++own_alerts;
    eval.wall_s += result.wall_time_s;
  }

  const auto n = static_cast<double>(config_.runs_per_encounter);
  eval.fitness = gain_sum / n;
  eval.mean_miss_m = miss_sum / n;
  eval.alert_fraction_own = static_cast<double>(own_alerts) / n;
  return eval;
}

}  // namespace cav::core
