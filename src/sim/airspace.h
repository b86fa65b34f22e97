// Airspace-scale machinery for the event-driven simulation core (ROADMAP
// item 3): a counting-sort grid over horizontal position so threat gating
// and pair-monitor activation cost O(near pairs) instead of O(K²), and a
// deterministic event queue that carries fault-profile transitions
// (comms-blackout window edges) as first-class scheduled events.
//
// Equivalence contract (asserted by tests/test_sim_equivalence.cpp):
//
//   * `AirspaceConfig::legacy()` — an infinite interaction radius, which
//     makes every pair near — reproduces the pre-refactor dense fixed-dt
//     engine bit for bit: every RNG draw, monitor update, and coordination
//     delivery happens in the same order with the same operands.
//   * The default config (grid index, 25 km interaction radius) is
//     bit-identical to legacy() whenever every aircraft pair stays within
//     the interaction radius for the whole run — true of every existing
//     K≤8 scenario, whose geometry spans a few km.  Beyond the radius the
//     model changes deliberately: ADS-B reception has a finite range, so
//     far traffic is unseen (tracks drop), unseen aircraft fly their
//     flight plan on coarse steps, and their pair monitors do not
//     materialize.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "util/thread_pool.h"
#include "util/vec3.h"

namespace cav::sim {

/// Parallel logical-process execution (ROADMAP item 3).  The fleet is
/// partitioned into `num_lps` logical processes — contiguous aircraft
/// index ranges (lp_index_range) — whose event loops run on `pool` workers
/// and synchronize at decision-period boundaries.  Every cross-LP exchange
/// (near-pair lists, monitor minima) is assembled in LP order, which is
/// the canonical lexicographic order, never in completion order, so the
/// result is bit-identical to the serial engine for every (num_lps, pool,
/// thread-count) choice — including the default {1, nullptr}, which runs
/// the very same code inline.
///
/// `pool` is non-owning and may be shared across simulations, including
/// a pool the caller is itself running a task on.
struct LpConfig {
  int num_lps = 1;           ///< logical processes (>= 1); 1 = serial
  ThreadPool* pool = nullptr;  ///< workers for the LP event loops; null = inline
};

/// Run fn(lp) for every logical process.  With a pool and more than one
/// LP the calls run concurrently (fn must touch only LP-disjoint state);
/// otherwise they run inline, in LP order, on the calling thread.  The
/// partition — and therefore every result — depends only on num_lps,
/// never on the pool's thread count.  The callable is a template
/// parameter, so the inline (serial) path is a plain loop.
template <typename Fn>
void for_each_lp(const LpConfig& parallel, Fn&& fn) {
  if (parallel.pool != nullptr && parallel.num_lps > 1) {
    parallel.pool->parallel_for(static_cast<std::size_t>(parallel.num_lps),
                                [&fn](std::size_t lp) { fn(static_cast<int>(lp)); });
  } else {
    for (int lp = 0; lp < parallel.num_lps; ++lp) fn(lp);
  }
}

/// Contiguous index stripe [begin, end) owned by `lp` out of `num_lps`
/// over `n` items — the partition every LP-parallel phase uses (pair
/// collection, surveillance, integration).  Deterministic in
/// (n, lp, num_lps).
inline std::pair<std::size_t, std::size_t> lp_index_range(int lp, int num_lps, std::size_t n) {
  const auto l = static_cast<std::size_t>(lp);
  const auto k = static_cast<std::size_t>(num_lps);
  return {l * n / k, (l + 1) * n / k};
}

struct AirspaceConfig {
  /// Horizontal ADS-B reception / interaction radius.  Pairs farther apart
  /// than this exchange no surveillance or coordination and are not
  /// monitored, and agents with no aircraft inside it integrate one coarse
  /// step per decision period instead of densifying to the physics dt
  /// (their OU disturbance draws coarsen accordingly).  The 25 km default
  /// exceeds the span of every legacy scenario (encounter geometry tops
  /// out near 12 km), so the default engine reproduces all existing
  /// results exactly; city-scale scenarios override it downward to
  /// realistic reception ranges.  An infinite radius selects the dense
  /// all-pairs engine: every pair is near and the grid is never built.
  double interaction_radius_m = 25000.0;
  /// Logical-process parallelism.  The default {1, nullptr} is the serial
  /// engine; any other setting is bit-identical to it (see LpConfig).
  LpConfig parallel;

  /// The pre-refactor engine: dense pairing, fixed dt everywhere (with
  /// every pair near, every agent always has a neighbour and so never
  /// takes a coarse step).  The brute-force oracle of the equivalence
  /// tests and the E16 comparison row.
  static AirspaceConfig legacy() { return {std::numeric_limits<double>::infinity(), {}}; }
};

/// Grid over horizontal (x, y) position with cells at least as large as
/// the query radius, so the 3×3 stencil around an aircraft's cell bounds
/// every near pair.  The cells form a dense row-major array over the
/// positions' bounding box, padded by one empty ring so the stencil never
/// needs a bounds check; a counting sort orders the aircraft by
/// (cell, index), which makes the three horizontally adjacent cells of a
/// stencil row one contiguous run.  All outputs are in deterministic index
/// order: pairs are emitted lexicographically (i < j, i ascending, j
/// ascending within i).
class SpatialHashGrid {
 public:
  /// The cell array never holds more than 4K + kCellSlack cells: a box
  /// that would need more doubles the cell size until it fits.
  static constexpr std::size_t kCellSlack = 64;

  /// Rebuild the grid from scratch.  `cell_size_m` must be positive and
  /// finite (callers with an infinite radius should not use the grid), and
  /// every position finite.
  void build(const std::vector<Vec3>& positions, double cell_size_m);

  /// Append every pair (i, j), i < j, with horizontal separation <=
  /// `radius_m` to `out`, in lexicographic order.  `radius_m` may not
  /// exceed the cell size given to build().
  void collect_near_pairs(const std::vector<Vec3>& positions, double radius_m,
                          std::vector<std::pair<int, int>>* out) const {
    collect_near_pairs(positions, radius_m, 0, positions.size(), out);
  }

  /// The share of collect_near_pairs whose lower aircraft i lies in
  /// [begin, end).  Still lexicographic, so the lists of consecutive index
  /// ranges concatenate into the full list.
  void collect_near_pairs(const std::vector<Vec3>& positions, double radius_m, std::size_t begin,
                          std::size_t end, std::vector<std::pair<int, int>>* out) const;

  /// Cells in the array, padding ring included.
  std::size_t num_cells() const { return cell_start_.empty() ? 0 : cell_start_.size() - 1; }

 private:
  struct Member {
    double x;
    double y;
    int id;
  };

  double cell_size_m_ = 0.0;
  std::size_t columns_ = 0;                ///< cells per row, padding included
  std::vector<std::uint32_t> cell_of_;     ///< aircraft -> cell
  std::vector<std::uint32_t> cell_start_;  ///< cell -> first member; one past the end last
  std::vector<Member> members_;            ///< sorted by (cell, index)
};

/// The grid-free pair collection of small fleets: every pair (i, j) with
/// i in [begin, end) and j > i is tested directly, with the grid's own
/// radius test, so the list equals SpatialHashGrid::collect_near_pairs'
/// (lexicographic, horizontal separation <= `radius_m`).  r² must be a
/// normal double.
void collect_near_pairs_direct(const std::vector<Vec3>& positions, double radius_m,
                               std::size_t begin, std::size_t end,
                               std::vector<std::pair<int, int>>* out);

/// The airspace view the simulation consults once per decision cycle:
/// which unordered pairs are near, and each agent's sorted neighbor list.
/// With an infinite interaction radius every pair is near and the grid is
/// never built.  A fleet of at most kDirectPairsMaxAgents aircraft skips
/// the grid too and tests its pairs directly (collect_near_pairs_direct):
/// the same list, without a counting sort per cycle.
///
/// With config.parallel.num_lps > 1 (finite radius only), rebuild() fans
/// the pair collection out across logical processes: LP l collects the
/// pairs whose lower aircraft lies in its index range (lp_index_range),
/// and the LP lists, concatenated in LP order, are already the canonical
/// lexicographic list, so near_pairs() and neighbors_of() are
/// bit-identical to the serial rebuild (the num_lps == 1 case of the same
/// loop) for any LP count.
class Airspace {
 public:
  /// The largest fleet whose pairs are collected without the grid:
  /// bench_pair_collection measured the direct loop no slower than the
  /// grid's build + collect up to here on dense scenario-like clouds and
  /// on sparse city-like ones (where the grid first wins, at K = 112).
  static constexpr std::size_t kDirectPairsMaxAgents = 96;

  Airspace(const AirspaceConfig& config, std::size_t num_agents);

  /// Recompute near pairs and adjacency from current positions.
  void rebuild(const std::vector<Vec3>& positions);

  const AirspaceConfig& config() const { return config_; }

  /// Near pairs (i < j) in lexicographic order.
  const std::vector<std::pair<int, int>>& near_pairs() const { return near_pairs_; }

  /// Ascending ids of the aircraft within the interaction radius of `i`.
  const std::vector<int>& neighbors_of(std::size_t i) const { return neighbors_[i]; }

 private:
  AirspaceConfig config_;
  std::size_t num_agents_;
  SpatialHashGrid grid_;
  std::vector<std::pair<int, int>> near_pairs_;
  std::vector<std::vector<int>> neighbors_;
  /// Per-LP pair lists, persistent across rebuilds so the steady-state
  /// cycle makes no allocations.
  std::vector<std::vector<std::pair<int, int>>> lp_pairs_;
  bool built_ = false;
};

/// Scheduled simulation events.  Today these are the fault-profile comms
/// transitions; the queue ordering key (time, type, agent, seq) is the
/// contract new event types must slot into.
enum class EventType : std::uint8_t {
  kCommsBlackoutStart = 0,
  kCommsBlackoutEnd = 1,
};

struct Event {
  double t_s = 0.0;
  EventType type = EventType::kCommsBlackoutStart;
  int agent = 0;
  std::uint64_t seq = 0;  ///< insertion order; final determinism tiebreak
};

/// Deterministic min-queue over (t_s, type, agent, seq).  Events are
/// drained against the simulation's accumulated clock (`pop_due`), which
/// is what makes event-driven blackout toggles reproduce the legacy
/// per-cycle `TimeWindow::contains` comparisons exactly: an event with
/// t_e fires at the first decision time t >= t_e, the same half-open
/// boundary the window test evaluated.
class EventQueue {
 public:
  void push(double t_s, EventType type, int agent) {
    heap_.push(Event{t_s, type, agent, next_seq_++});
  }

  bool has_due(double t_s) const { return !heap_.empty() && heap_.top().t_s <= t_s; }

  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t_s != b.t_s) return a.t_s > b.t_s;
      if (a.type != b.type) return a.type > b.type;
      if (a.agent != b.agent) return a.agent > b.agent;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cav::sim
