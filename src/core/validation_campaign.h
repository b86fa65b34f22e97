// The campaign/work-unit surface of Monte-Carlo validation (§IV): the one
// entry point for estimating rates.
//
// A campaign is a fixed grid of CANONICAL ACCUMULATOR CELLS: cell c owns
// the contiguous encounter indices [c*E/C, (c+1)*E/C) with C = min(E, 64).
// Every execution — serial, thread-pooled, or sharded across processes —
// accumulates each cell's partial (NMAC/alert counts, separation and
// wall-clock sums) serially in index order, and a merge combines the
// per-cell partials in cell order.  Since double addition is grouping-
// dependent, fixing the grouping at the cell granularity is what makes
// N-shard results BIT-IDENTICAL to the single-process run for any shard
// count and any completion order (asserted in tests/test_dist_campaign).
//
// Work units are EncounterStripe{seed, begin, end}: a contiguous,
// cell-aligned slice of the encounter index range.  All random draws —
// geometry, disturbance, equipage, faults — key on (seed, encounter
// index, agent index) only, so a stripe's result does not depend on which
// process or thread runs it.  dist::CampaignDriver (src/dist/) hands
// stripes to worker processes and merges through the same merge().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/monte_carlo.h"
#include "encounter/multi_encounter.h"
#include "encounter/statistical_model.h"
#include "util/thread_pool.h"

namespace cav::core {

/// One unit of campaign work: encounters [begin, end) under `seed`.
/// Boundaries must lie on canonical cell boundaries
/// (ValidationCampaign::cell_begin); make_stripes only produces such.
struct EncounterStripe {
  std::uint64_t seed = 0;
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive

  std::size_t size() const { return end - begin; }
};

/// One canonical cell's partial sums.  Integer counts are exact; the
/// double sums are accumulated serially over the cell's encounters, so a
/// cell's value is independent of the execution that produced it.
struct StripeCell {
  std::uint64_t nmacs = 0;
  std::uint64_t alerts = 0;
  double sep_sum = 0.0;
  double wall_s = 0.0;
};

/// The result of running one stripe: its cells, in cell order.
struct StripeResult {
  std::size_t first_cell = 0;  ///< global index of cells.front()
  std::vector<StripeCell> cells;
};

/// A finished campaign.  `rates` is bit-identical to the single-process
/// run() whenever every stripe ran to completion (the degraded path
/// re-runs lost stripes, which preserves this — see dist::CampaignDriver).
struct CampaignResult {
  SystemRates rates;
  std::size_t work_units = 0;  ///< stripes merged
  std::size_t requeues = 0;    ///< stripes re-issued after worker loss
  bool degraded = false;       ///< some worker died or timed out
  std::vector<std::string> notes;  ///< human-readable degradation notes
  double wall_s = 0.0;             ///< campaign wall clock (host timing)
};

/// Describes one validation campaign — the encounter model, the
/// Monte-Carlo configuration, and the two CAS factories — and runs any
/// cell-aligned slice of it.  The object is immutable after construction
/// and safe to share across threads (run_stripe is const and keeps no
/// mutable state).
class ValidationCampaign {
 public:
  ValidationCampaign(const encounter::StatisticalEncounterModel& model,
                     MonteCarloConfig config, std::string system_name,
                     sim::CasFactory own_cas, sim::CasFactory intruder_cas);

  const MonteCarloConfig& config() const { return config_; }
  const std::string& system_name() const { return system_name_; }

  /// Canonical accumulation grid: min(encounters, 64) cells.
  std::size_t num_cells() const { return num_cells_; }
  /// First encounter index of cell c (c == num_cells() gives encounters).
  std::size_t cell_begin(std::size_t cell) const {
    return cell * config_.encounters / num_cells_;
  }

  /// Partition the campaign into at most `shards` cell-aligned stripes
  /// (ragged when cells don't divide evenly; empty stripes are dropped,
  /// so fewer than `shards` may be returned).  Every stripe carries
  /// config().seed.
  std::vector<EncounterStripe> make_stripes(std::size_t shards) const;

  /// Run one stripe.  `stripe.begin`/`end` must be cell-aligned (begin
  /// may equal end for an empty stripe).  `pool` parallelizes across the
  /// stripe's cells; with or without it the per-cell partials are
  /// identical.  The stripe's seed overrides config().seed for every
  /// draw, so a driver can re-seed work units without rebuilding the
  /// campaign.
  StripeResult run_stripe(const EncounterStripe& stripe, ThreadPool* pool = nullptr) const;

  /// Merge stripe results into rates.  The results must tile
  /// [0, num_cells()) exactly (any order; merge sorts by first_cell).
  /// Accumulation walks cells in index order — the bit-identity contract.
  SystemRates merge(const std::vector<StripeResult>& results) const;

  /// The whole campaign as a single stripe + merge.
  CampaignResult run(ThreadPool* pool = nullptr) const;

 private:
  encounter::StatisticalEncounterModel model_;
  encounter::MultiEncounterModel multi_model_;
  MonteCarloConfig config_;
  std::string system_name_;
  sim::CasFactory own_cas_;
  sim::CasFactory intruder_cas_;
  std::size_t num_cells_ = 1;
};

}  // namespace cav::core
