#include "sim/monitors.h"

#include <algorithm>

#include "util/expect.h"
#include "util/thread_pool.h"

namespace cav::sim {

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

void PairwiseMonitors::update_series(const std::vector<double>& times_s,
                                     const std::vector<Vec3>& snapshots, std::size_t n_rows,
                                     int num_lps, ThreadPool* pool) {
  if (active_.empty() || n_rows == 0) return;
  const std::size_t n_active = active_.size();
  auto run_stripe = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      PairSlot& slot = slots_[active_[k]];
      const Vec3* row_a = snapshots.data() + slot.a * n_rows;
      const Vec3* row_b = snapshots.data() + slot.b * n_rows;
      for (std::size_t s = 0; s < n_rows; ++s) update_slot(slot, times_s[s], row_a[s], row_b[s]);
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
