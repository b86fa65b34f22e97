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

void PairwiseMonitors::update_slot(PairSlot& slot, double t_s,
                                   const std::vector<Vec3>& positions) {
  const Separation s = Separation::between(positions[slot.a], positions[slot.b]);
  slot.proximity.update(t_s, s);
  slot.accidents.update(t_s, s);
}

std::size_t PairwiseMonitors::find_or_create(std::size_t i, std::size_t j) {
  const auto [it, created] = index_.try_emplace(slot_key(i, j), slots_.size());
  if (created) {
    PairSlot slot;
    slot.a = static_cast<std::uint32_t>(i);
    slot.b = static_cast<std::uint32_t>(j);
    slot.accidents = AccidentDetector(config_);
    slots_.push_back(std::move(slot));
    sorted_valid_ = false;
  }
  return it->second;
}

std::size_t PairwiseMonitors::set_active_pairs(const std::vector<std::pair<int, int>>& pairs) {
  const std::size_t before = slots_.size();
  active_.clear();
  for (const auto& [i, j] : pairs) {
    active_.push_back(find_or_create(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
  }
  return slots_.size() - before;
}

void PairwiseMonitors::update(double t_s, const std::vector<Vec3>& positions) {
  for (const std::size_t s : active_) update_slot(slots_[s], t_s, positions);
}

void PairwiseMonitors::update_series(const std::vector<double>& times_s,
                                     const std::vector<std::vector<Vec3>>& position_rows,
                                     std::size_t n_rows, int num_lps, ThreadPool* pool) {
  if (active_.empty() || n_rows == 0) return;
  const std::size_t n_active = active_.size();
  auto run_stripe = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      PairSlot& slot = slots_[active_[k]];
      for (std::size_t s = 0; s < n_rows; ++s) update_slot(slot, times_s[s], position_rows[s]);
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
    update_slot(slots_[s], t_s, positions);
  }
}

bool PairwiseMonitors::monitored(std::size_t i, std::size_t j) const {
  return index_.find(slot_key(i, j)) != index_.end();
}

const ProximityMeasurer& PairwiseMonitors::proximity(std::size_t i, std::size_t j) const {
  const auto it = index_.find(slot_key(i, j));
  expect(it != index_.end(), "pair was never monitored");
  return slots_[it->second].proximity;
}

const AccidentDetector& PairwiseMonitors::accidents(std::size_t i, std::size_t j) const {
  const auto it = index_.find(slot_key(i, j));
  expect(it != index_.end(), "pair was never monitored");
  return slots_[it->second].accidents;
}

const std::vector<std::size_t>& PairwiseMonitors::sorted_order() const {
  if (!sorted_valid_) {
    sorted_.resize(slots_.size());
    for (std::size_t s = 0; s < slots_.size(); ++s) sorted_[s] = s;
    std::sort(sorted_.begin(), sorted_.end(), [this](std::size_t x, std::size_t y) {
      if (slots_[x].a != slots_[y].a) return slots_[x].a < slots_[y].a;
      return slots_[x].b < slots_[y].b;
    });
    sorted_valid_ = true;
  }
  return sorted_;
}

const ProximityMeasurer& PairwiseMonitors::proximity_at(std::size_t pair) const {
  return slots_[sorted_order()[pair]].proximity;
}

const AccidentDetector& PairwiseMonitors::accidents_at(std::size_t pair) const {
  return slots_[sorted_order()[pair]].accidents;
}

std::pair<std::size_t, std::size_t> PairwiseMonitors::pair_agents(std::size_t pair) const {
  const PairSlot& slot = slots_[sorted_order()[pair]];
  return {slot.a, slot.b};
}

ProximityReport PairwiseMonitors::aggregate_proximity() const {
  ProximityReport out;
  for (const std::size_t s : sorted_order()) {
    const ProximityReport& r = slots_[s].proximity.report();
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
