#include "sim/monitors.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/thread_pool.h"

namespace cav::sim {

namespace {

/// Squared separations above band_top(q) have roots strictly above q's:
/// sqrt is correctly rounded and std::hypot within a few ulps of the exact
/// root, while a q computed as dx² + dy² (+ dz²) is within a relative
/// ~2^-51 of the exact sum, so a relative 1e-9 gap in q survives both; the
/// DBL_MIN floor covers squares that underflow.  Only samples at or below
/// band_top of the value that matters need the exact root.
double band_top(double q) { return q * (1.0 + 1e-9) + std::numeric_limits<double>::min(); }

}  // namespace

void ProximityMeasurer::update(double t_s, const Separation& s) {
  if (s.distance_m < report_.min_distance_m) {
    report_.min_distance_m = s.distance_m;
    report_.time_of_min_distance_s = t_s;
  }
  if (s.horizontal_m < report_.min_horizontal_m) report_.min_horizontal_m = s.horizontal_m;
  if (s.vertical_m < report_.min_vertical_m) report_.min_vertical_m = s.vertical_m;
}

void AccidentDetector::update(double t_s, const Separation& s) {
  if (!nmac_ && s.horizontal_m < config_.nmac_horizontal_m &&
      s.vertical_m < config_.nmac_vertical_m) {
    nmac_ = true;
    nmac_time_s_ = t_s;
  }
  if (!hard_collision_ && s.distance_m < config_.collision_radius_m) {
    hard_collision_ = true;
  }
}

PairwiseMonitors::PairwiseMonitors(std::size_t num_agents, const AccidentConfig& config)
    : num_agents_(num_agents), config_(config) {}

void PairwiseMonitors::update_slot(PairSlot& slot, double t_s, const Vec3& a, const Vec3& b) {
  const Separation s = Separation::between(a, b);
  slot.proximity.update(t_s, s);
  slot.accidents.update(t_s, s);
}

std::size_t PairwiseMonitors::set_active_pairs(const std::vector<std::pair<int, int>>& pairs) {
  const std::size_t before = slots_.size();
  const std::size_t indexed = index_.size();
  active_.clear();
  // Merge the ascending pair list against the sorted index: a matching
  // entry re-activates its slot, a gap materializes a new slot at the end
  // of slots_, in pair order, whose entry is appended past `indexed` and
  // merged in afterwards.
  std::size_t cursor = 0;
  std::uint64_t previous = 0;
  for (const auto& [i, j] : pairs) {
    const std::uint64_t key = slot_key(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    expect(active_.empty() || key > previous, "active pairs must be strictly ascending");
    previous = key;
    while (cursor < indexed && index_[cursor].key < key) ++cursor;
    if (cursor < indexed && index_[cursor].key == key) {
      active_.push_back(index_[cursor].slot);
      continue;
    }
    PairSlot slot;
    slot.a = static_cast<std::uint32_t>(i);
    slot.b = static_cast<std::uint32_t>(j);
    slot.accidents = AccidentDetector(config_);
    index_.push_back({key, slots_.size()});
    active_.push_back(slots_.size());
    slots_.push_back(std::move(slot));
  }
  std::inplace_merge(index_.begin(), index_.begin() + static_cast<std::ptrdiff_t>(indexed),
                     index_.end(),
                     [](const IndexEntry& x, const IndexEntry& y) { return x.key < y.key; });
  return slots_.size() - before;
}

void PairwiseMonitors::update(double t_s, const std::vector<Vec3>& positions) {
  for (const std::size_t s : active_) {
    PairSlot& slot = slots_[s];
    update_slot(slot, t_s, positions[slot.a], positions[slot.b]);
  }
}

void PairwiseMonitors::replay_slot(PairSlot& slot, const double* times_s, const Vec3* row_a,
                                   const Vec3* row_b, std::size_t n_rows) {
  // One pass on squared separations.  q3 = dx² + dy² + dz² is the very
  // operand distance() takes the root of, and sqrt is monotone, so the
  // period's smallest distance is sqrt of its smallest q3.  The pass keeps
  // that q3's first sample, the smallest q3 before it, and the smallest and
  // runner-up q2 = dx² + dy², which decide whether any other sample needs
  // an exact root.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double q3_min = kInf;
  double q3_before = kInf;
  std::size_t s3 = 0;
  double q2_min = kInf;
  double q2_next = kInf;
  std::size_t s2 = 0;
  double v_min = kInf;
  const AccidentConfig& config = slot.accidents.config();
  const double nmac_top = band_top(config.nmac_horizontal_m * config.nmac_horizontal_m);
  for (std::size_t s = 0; s < n_rows; ++s) {
    const Vec3 d = row_a[s] - row_b[s];
    const double q2 = d.x * d.x + d.y * d.y;
    const double q3 = q2 + d.z * d.z;
    const double v = std::abs(d.z);
    if (q3 < q3_min) {
      q3_before = q3_min;
      q3_min = q3;
      s3 = s;
    }
    if (q2 < q2_min) {
      q2_next = q2_min;
      q2_min = q2;
      s2 = s;
    } else if (q2 < q2_next) {
      q2_next = q2;
    }
    if (v < v_min) v_min = v;
    // A sample that may be inside the NMAC cylinder takes the exact
    // per-sample update, which also applies its collision test.
    if (!slot.accidents.nmac() && v < config.nmac_vertical_m && q2 <= nmac_top) {
      slot.accidents.update(times_s[s], Separation::between(row_a[s], row_b[s]));
    }
  }

  // The period's smallest distance, reached first at the first sample whose
  // distance rounds to it: s3, unless an earlier q3 lies in its band.
  const double min_distance = std::sqrt(q3_min);
  std::size_t first = s3;
  if (q3_before <= band_top(q3_min)) {
    for (std::size_t s = 0; s < s3; ++s) {
      const double q3 = (row_a[s] - row_b[s]).norm_sq();
      if (q3 <= band_top(q3_min) && std::sqrt(q3) == min_distance) {
        first = s;
        break;
      }
    }
  }
  // The smallest horizontal distance: hypot at the smallest q2 alone, or,
  // when another q2 lies in its band, the least hypot over that band.
  double min_horizontal = kInf;
  if (q2_next > band_top(q2_min)) {
    min_horizontal = horizontal_distance(row_a[s2], row_b[s2]);
  } else {
    for (std::size_t s = 0; s < n_rows; ++s) {
      const Vec3 d = row_a[s] - row_b[s];
      if (d.x * d.x + d.y * d.y > band_top(q2_min)) continue;
      const double h = std::hypot(d.x, d.y);
      if (h < min_horizontal) min_horizontal = h;
    }
  }
  // Folding the period's minima in as one sample at `first` is what the
  // per-sample updates would have left.
  slot.proximity.update(times_s[first], Separation{min_distance, min_horizontal, v_min});
  // Some sample is inside the collision sphere iff the closest one is.
  if (!slot.accidents.hard_collision() && min_distance < config.collision_radius_m) {
    slot.accidents.update(times_s[s3], Separation::between(row_a[s3], row_b[s3]));
  }
}

void PairwiseMonitors::update_series(const std::vector<double>& times_s,
                                     const std::vector<Vec3>& snapshots, std::size_t n_rows,
                                     int num_lps, ThreadPool* pool) {
  if (active_.empty() || n_rows == 0) return;
  const std::size_t n_active = active_.size();
  auto run_stripe = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      PairSlot& slot = slots_[active_[k]];
      replay_slot(slot, times_s.data(), snapshots.data() + slot.a * n_rows,
                  snapshots.data() + slot.b * n_rows, n_rows);
    }
  };
  if (pool != nullptr && num_lps > 1) {
    pool->parallel_for(static_cast<std::size_t>(num_lps), [&](std::size_t lp) {
      const std::size_t k = static_cast<std::size_t>(num_lps);
      run_stripe(lp * n_active / k, (lp + 1) * n_active / k);
    });
  } else {
    run_stripe(0, n_active);
  }
}

void PairwiseMonitors::update_new(double t_s, const std::vector<Vec3>& positions,
                                  std::size_t count) {
  for (std::size_t s = slots_.size() - count; s < slots_.size(); ++s) {
    PairSlot& slot = slots_[s];
    update_slot(slot, t_s, positions[slot.a], positions[slot.b]);
  }
}

const PairwiseMonitors::IndexEntry* PairwiseMonitors::find(std::size_t i, std::size_t j) const {
  const std::uint64_t key = slot_key(i, j);
  const auto it = std::lower_bound(index_.begin(), index_.end(), key,
                                   [](const IndexEntry& e, std::uint64_t k) { return e.key < k; });
  return it != index_.end() && it->key == key ? &*it : nullptr;
}

bool PairwiseMonitors::monitored(std::size_t i, std::size_t j) const {
  return find(i, j) != nullptr;
}

const ProximityMeasurer& PairwiseMonitors::proximity(std::size_t i, std::size_t j) const {
  const IndexEntry* e = find(i, j);
  expect(e != nullptr, "pair was never monitored");
  return slots_[e->slot].proximity;
}

const AccidentDetector& PairwiseMonitors::accidents(std::size_t i, std::size_t j) const {
  const IndexEntry* e = find(i, j);
  expect(e != nullptr, "pair was never monitored");
  return slots_[e->slot].accidents;
}

const ProximityMeasurer& PairwiseMonitors::proximity_at(std::size_t pair) const {
  return slots_[index_[pair].slot].proximity;
}

const AccidentDetector& PairwiseMonitors::accidents_at(std::size_t pair) const {
  return slots_[index_[pair].slot].accidents;
}

std::pair<std::size_t, std::size_t> PairwiseMonitors::pair_agents(std::size_t pair) const {
  const PairSlot& slot = slots_[index_[pair].slot];
  return {slot.a, slot.b};
}

ProximityReport PairwiseMonitors::aggregate_proximity() const {
  ProximityReport out;
  for (const IndexEntry& e : index_) {
    const ProximityReport& r = slots_[e.slot].proximity.report();
    if (r.min_distance_m < out.min_distance_m) {
      out.min_distance_m = r.min_distance_m;
      out.time_of_min_distance_s = r.time_of_min_distance_s;
    }
    if (r.min_horizontal_m < out.min_horizontal_m) out.min_horizontal_m = r.min_horizontal_m;
    if (r.min_vertical_m < out.min_vertical_m) out.min_vertical_m = r.min_vertical_m;
  }
  return out;
}

bool PairwiseMonitors::any_nmac() const {
  for (const PairSlot& slot : slots_) {
    if (slot.accidents.nmac()) return true;
  }
  return false;
}

double PairwiseMonitors::earliest_nmac_time_s() const {
  double earliest = -1.0;
  for (const PairSlot& slot : slots_) {
    if (!slot.accidents.nmac()) continue;
    if (earliest < 0.0 || slot.accidents.nmac_time_s() < earliest) {
      earliest = slot.accidents.nmac_time_s();
    }
  }
  return earliest;
}

bool PairwiseMonitors::any_hard_collision() const {
  for (const PairSlot& slot : slots_) {
    if (slot.accidents.hard_collision()) return true;
  }
  return false;
}

}  // namespace cav::sim
