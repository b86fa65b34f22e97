// The paper's fitness function (§VII):
//
//   fitness = (1/100) * sum_{k=1..100}  10000 / (1 + d_k)
//
// where d_k is the minimum distance between the two UAVs in the k-th
// stochastic simulation run (0 when a mid-air collision happens, giving the
// run the maximum gain of 10000 — "10000 was chosen because in the MDP
// model 10000 was assigned to mid-air collision states").  The worse the
// avoidance system behaves in an encounter, the higher the encounter's
// fitness.
#pragma once

#include <cstdint>
#include <optional>

#include "encounter/encounter.h"
#include "encounter/multi_encounter.h"
#include "sim/cas.h"
#include "sim/simulation.h"

namespace cav::core {

struct FitnessConfig {
  std::size_t runs_per_encounter = 100;  ///< paper: "running 100 simulations"
  double gain_max = 10000.0;             ///< footnote 6
  /// max_time_s is overridden per encounter.  Set sim.threat_policy to
  /// kCostFused (or kJointTable, with joint-table-equipped CAS factories)
  /// to point the GA search at a multi-threat arbitration policy — the
  /// evaluators pass this config through to every simulation.  sim.fault
  /// and sim.coordination inject degraded-mode conditions, so the GA can
  /// breed worst cases against a policy under bursty comms or sensor
  /// outages (see also search_degraded_multi_scenarios, which puts the
  /// fault knobs themselves on the genome).
  sim::SimConfig sim;
  double sim_time_margin_s = 45.0;       ///< simulate until t_cpa + margin
  std::uint64_t seed = 1234;             ///< master seed for all runs

  /// Mixed-fleet knobs, mirroring MonteCarloConfig: per-agent fault
  /// profiles override sim.fault when set; equipage_fraction < 1 leaves
  /// some intruders without the intruder CAS (the draw is deterministic
  /// in (seed, stream_id, run, intruder), so fitness stays reproducible).
  std::optional<sim::FaultProfile> own_fault;
  std::optional<sim::FaultProfile> intruder_fault;
  double equipage_fraction = 1.0;
};

/// Everything a fitness evaluation learns about one encounter.
struct EncounterEvaluation {
  double fitness = 0.0;
  std::size_t runs = 0;
  std::size_t nmac_count = 0;        ///< mid-air collisions across the runs
  double mean_miss_m = 0.0;          ///< mean of d_k
  double min_miss_m = 0.0;           ///< best (smallest) d_k seen
  double alert_fraction_own = 0.0;   ///< runs where the own-ship ever alerted
  /// Summed SimResult::wall_time_s across the runs — what this encounter
  /// cost to evaluate.  Host timing, not deterministic.
  double wall_s = 0.0;

  double nmac_rate() const {
    return runs ? static_cast<double>(nmac_count) / static_cast<double>(runs) : 0.0;
  }
};

/// Evaluates encounters by repeated stochastic simulation.  Thread-safe:
/// evaluate() is const and every run derives its own RNG streams from
/// (seed, stream_id, run_index).
class EncounterEvaluator {
 public:
  EncounterEvaluator(FitnessConfig config, sim::CasFactory own_cas, sim::CasFactory intruder_cas);

  /// `stream_id` distinguishes evaluations (the GA passes its evaluation
  /// index); identical (params, stream_id) give identical results.  Runs
  /// are simulated and accumulated in run order.
  EncounterEvaluation evaluate(const encounter::EncounterParams& params,
                               std::uint64_t stream_id) const;

  /// One fully instrumented run (trajectory recorded) for inspection.
  sim::SimResult run_once(const encounter::EncounterParams& params, std::uint64_t stream_id,
                          std::size_t run_index, bool record_trajectory) const;

  const FitnessConfig& config() const { return config_; }

 private:
  FitnessConfig config_;
  sim::CasFactory own_cas_;
  sim::CasFactory intruder_cas_;
};

/// Multi-intruder fitness evaluation: the same paper fitness, with d_k the
/// own-ship-centric miss distance (0 when any pair involving the own-ship
/// reaches an NMAC, otherwise the minimum own-ship separation).
struct MultiEncounterEvaluation {
  double fitness = 0.0;
  std::size_t runs = 0;
  std::size_t own_nmac_count = 0;    ///< runs with an own-ship NMAC
  double mean_miss_m = 0.0;          ///< mean of d_k
  double min_miss_m = 0.0;           ///< best (smallest) d_k seen
  double alert_fraction_own = 0.0;   ///< runs where the own-ship ever alerted
  /// Summed SimResult::wall_time_s across the runs — what this encounter
  /// cost to evaluate.  Host timing, not deterministic.
  double wall_s = 0.0;

  double nmac_rate() const {
    return runs ? static_cast<double>(own_nmac_count) / static_cast<double>(runs) : 0.0;
  }
};

/// Evaluates K-intruder encounters by repeated stochastic simulation of the
/// N-aircraft engine.  Thread-safe exactly like EncounterEvaluator: every
/// run derives its own RNG streams from (seed, stream_id, run_index).
class MultiEncounterEvaluator {
 public:
  MultiEncounterEvaluator(FitnessConfig config, sim::CasFactory own_cas,
                          sim::CasFactory intruder_cas);

  /// Runs are simulated and accumulated in run order, as in
  /// EncounterEvaluator::evaluate.
  MultiEncounterEvaluation evaluate(const encounter::MultiEncounterParams& params,
                                    std::uint64_t stream_id) const;

  /// One fully instrumented run (trajectory recorded) for inspection.
  sim::SimResult run_once(const encounter::MultiEncounterParams& params,
                          std::uint64_t stream_id, std::size_t run_index,
                          bool record_trajectory) const;

  const FitnessConfig& config() const { return config_; }

 private:
  FitnessConfig config_;
  sim::CasFactory own_cas_;
  sim::CasFactory intruder_cas_;
};

}  // namespace cav::core
