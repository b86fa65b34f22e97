// Simulation monitors (§VI.C): the Proximity Measurer "measures the
// proximities (in horizontal distance and vertical distance) ... and
// records the minimum proximity experienced", and the Accident Detector
// "monitors the simulations and detects any mid-air collisions".
//
// Accident semantics: the headline "mid-air collision" event is an NMAC
// (near mid-air collision) cylinder — simultaneous horizontal separation
// < 500 ft and vertical separation < 100 ft — which is both the standard
// surrogate in the encounter-model literature and the event the MDP's
// 10000-cost terminal state encodes.  A 30 m "hard collision" sphere is
// tracked separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/units.h"
#include "util/vec3.h"

namespace cav {
class ThreadPool;
}

namespace cav::sim {

/// Per-agent bookkeeping of the multi-threat arbitration layer
/// (sim/multi_threat.h), reported next to the proximity/accident monitors:
/// how much traffic the resolver actually weighed, how often the fused
/// choice departed from the nearest-threat choice, and how often the
/// blocking-set check vetoed a pairwise advisory.
/// Invariant: cycles == fused_cycles + joint_cycles + fallback_cycles
/// (joint_cycles is only ever non-zero under ThreatPolicy::kJointTable).
struct ResolverStats {
  int cycles = 0;               ///< decision cycles the resolver arbitrated
  int threats_considered = 0;   ///< gated threats, summed over those cycles
  int max_threats_in_cycle = 0; ///< peak simultaneous gated threats
  int fused_cycles = 0;         ///< cycles resolved by cost-summed voting
  int joint_cycles = 0;         ///< cycles resolved through the joint-threat table
  int fallback_cycles = 0;      ///< cycles on the severity-ordered fallback
  int vetoes = 0;               ///< blocking-set vetoes applied
  /// Cycles where the flown advisory knowably differed from the
  /// nearest-threat choice: fused advisory != nearest-threat advisory on
  /// fused cycles; vetoed or non-nearest-primary cycles on the fallback.
  int disagreements = 0;
};

struct ProximityReport {
  double min_distance_m = std::numeric_limits<double>::infinity();   ///< 3-D separation
  double min_horizontal_m = std::numeric_limits<double>::infinity(); ///< over the whole run
  double min_vertical_m = std::numeric_limits<double>::infinity();   ///< over the whole run
  double time_of_min_distance_s = 0.0;
};

/// One pair-step's separations, computed once and fed to both monitors.
struct Separation {
  double distance_m = 0.0;    ///< 3-D
  double horizontal_m = 0.0;
  double vertical_m = 0.0;

  static Separation between(const Vec3& a, const Vec3& b) {
    return {distance(a, b), horizontal_distance(a, b), vertical_distance(a, b)};
  }
};

class ProximityMeasurer {
 public:
  void update(double t_s, const Vec3& a, const Vec3& b) { update(t_s, Separation::between(a, b)); }
  void update(double t_s, const Separation& s);
  const ProximityReport& report() const { return report_; }

 private:
  ProximityReport report_;
};

struct AccidentConfig {
  double nmac_horizontal_m = units::ft_to_m(500.0);
  double nmac_vertical_m = units::ft_to_m(100.0);
  double collision_radius_m = 30.0;
};

class AccidentDetector {
 public:
  explicit AccidentDetector(const AccidentConfig& config = {}) : config_(config) {}

  void update(double t_s, const Vec3& a, const Vec3& b) { update(t_s, Separation::between(a, b)); }
  void update(double t_s, const Separation& s);

  bool nmac() const { return nmac_; }
  /// Time of first NMAC penetration; -1 when no NMAC occurred.
  double nmac_time_s() const { return nmac_time_s_; }
  bool hard_collision() const { return hard_collision_; }
  const AccidentConfig& config() const { return config_; }

 private:
  AccidentConfig config_;
  bool nmac_ = false;
  bool hard_collision_ = false;
  double nmac_time_s_ = -1.0;
};

/// Per-pair monitor bank for N-aircraft runs: one ProximityMeasurer and one
/// AccidentDetector per *monitored* unordered aircraft pair (i < j).
///
/// Monitor slots materialize lazily: the simulation declares each decision
/// cycle's near-pair set (`set_active_pairs`, from the spatial index) and
/// only those pairs are allocated and updated, so memory and per-step cost
/// follow the near-pair count instead of K².  The pair index is a vector of
/// (pair key, slot) sorted by key, so activation is one merge of the
/// lexicographic near-pair list against it, and lookups binary-search it.
/// Declaring every pair in lexicographic order (the dense index's near-pair
/// list) restores the pre-refactor bank, including the float-aggregation
/// order of `aggregate_proximity` (first pair wins ties).  Aggregates and
/// `pair_agents` iterate slots in (i, j) order, so results are
/// deterministic regardless of activation chronology.
class PairwiseMonitors {
 public:
  PairwiseMonitors(std::size_t num_agents, const AccidentConfig& config);

  /// Declare this cycle's update set, which must be strictly ascending
  /// (lexicographic, as Airspace::near_pairs is).  Unseen pairs are
  /// materialized (the caller should `update_new` them at the activation
  /// time); pairs that drop out keep their slot and minima but stop being
  /// updated.  Returns the number of newly materialized slots: they are
  /// created in pair order and form the tail of the slot list.
  std::size_t set_active_pairs(const std::vector<std::pair<int, int>>& pairs);

  /// Update every active pair; `positions` must have `num_agents()` entries
  /// (only the active pairs' entries are read).
  void update(double t_s, const std::vector<Vec3>& positions);

  /// Update only the `count` most recently materialized slots — the pairs
  /// a `set_active_pairs` call just created, which missed the update at
  /// the end of the previous physics step.
  void update_new(double t_s, const std::vector<Vec3>& positions, std::size_t count);

  /// Replay a whole decision period of position snapshots over the active
  /// set.  `snapshots` is agent-major: aircraft a's position after substep
  /// s is snapshots[a * n_rows + s].  Slot by slot, each active pair
  /// consumes substeps [0, n_rows) of its two contiguous rows in time
  /// order — the same per-slot update sequence n_rows successive update()
  /// calls would apply.  Pair slots hold fully disjoint state, so
  /// partitioning them into `num_lps` contiguous stripes run on `pool`
  /// workers is bit-identical to the sequential replay for every
  /// (num_lps, pool) — including num_lps == 1 / pool == nullptr, which
  /// runs inline.
  void update_series(const std::vector<double>& times_s, const std::vector<Vec3>& snapshots,
                     std::size_t n_rows, int num_lps, ThreadPool* pool);

  std::size_t num_agents() const { return num_agents_; }
  /// Materialized (ever-monitored) pair count — K(K-1)/2 only in dense mode.
  std::size_t num_pairs() const { return slots_.size(); }
  std::size_t num_active_pairs() const { return active_.size(); }

  /// Whether pair (i, j) has ever been monitored.
  bool monitored(std::size_t i, std::size_t j) const;

  const ProximityMeasurer& proximity(std::size_t i, std::size_t j) const;
  const AccidentDetector& accidents(std::size_t i, std::size_t j) const;

  /// Slot access in (i, j)-sorted order, for result assembly.
  const ProximityMeasurer& proximity_at(std::size_t pair) const;
  const AccidentDetector& accidents_at(std::size_t pair) const;
  std::pair<std::size_t, std::size_t> pair_agents(std::size_t pair) const;

  /// Minimum separations over all monitored pairs; the time-of-minimum
  /// comes from the pair achieving the smallest 3-D distance (first pair
  /// in (i, j) order wins ties).
  ProximityReport aggregate_proximity() const;
  bool any_nmac() const;
  /// Earliest NMAC penetration time across pairs; -1 when none occurred.
  double earliest_nmac_time_s() const;
  bool any_hard_collision() const;

 private:
  struct PairSlot {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    ProximityMeasurer proximity;
    AccidentDetector accidents;
  };
  struct IndexEntry {
    std::uint64_t key = 0;  ///< slot_key(a, b): sorts like (a, b)
    std::size_t slot = 0;
  };

  static std::uint64_t slot_key(std::size_t i, std::size_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
  }
  static void update_slot(PairSlot& slot, double t_s, const Vec3& a, const Vec3& b);
  /// update_series' kernel for one slot: the same result as n_rows
  /// update_slot calls, from squared separations and a few exact roots.
  static void replay_slot(PairSlot& slot, const double* times_s, const Vec3* row_a,
                          const Vec3* row_b, std::size_t n_rows);
  /// Index entry of pair (i, j); null when it was never monitored.
  const IndexEntry* find(std::size_t i, std::size_t j) const;

  std::size_t num_agents_;
  AccidentConfig config_;
  std::vector<PairSlot> slots_;     ///< creation order
  std::vector<IndexEntry> index_;   ///< one entry per slot, sorted by key
  std::vector<std::size_t> active_; ///< this cycle's update set
};

}  // namespace cav::sim
