#include "sim/airspace.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"

namespace cav::sim {

std::int64_t SpatialHashGrid::cell_of(double coord_m) const {
  return static_cast<std::int64_t>(std::floor(coord_m / cell_size_m_));
}

void SpatialHashGrid::build(const std::vector<Vec3>& positions, double cell_size_m) {
  expect(cell_size_m > 0.0 && std::isfinite(cell_size_m), "grid cell size must be finite");
  cell_size_m_ = cell_size_m;
  // Keep the buckets across rebuilds (clear, don't deallocate) so the
  // steady-state decision cycle makes no allocations.
  for (auto& [key, members] : cells_) members.clear();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cells_[cell_key(cell_of(positions[i].x), cell_of(positions[i].y))].push_back(
        static_cast<int>(i));
  }
}

void SpatialHashGrid::collect_pairs_for(std::size_t i, const std::vector<Vec3>& positions,
                                        double radius_m, std::vector<int>* candidates,
                                        std::vector<std::pair<int, int>>* out) const {
  const std::int64_t cx = cell_of(positions[i].x);
  const std::int64_t cy = cell_of(positions[i].y);
  candidates->clear();
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = cells_.find(cell_key(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (const int j : it->second) {
        if (j <= static_cast<int>(i)) continue;
        if (horizontal_distance(positions[i], positions[j]) <= radius_m) {
          candidates->push_back(j);
        }
      }
    }
  }
  // Cell visitation order is arbitrary; sorting restores the j-ascending
  // order the determinism contract promises.
  std::sort(candidates->begin(), candidates->end());
  for (const int j : *candidates) out->emplace_back(static_cast<int>(i), j);
}

void SpatialHashGrid::collect_near_pairs(const std::vector<Vec3>& positions, double radius_m,
                                         std::vector<std::pair<int, int>>* out) const {
  std::vector<int> candidates;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    collect_pairs_for(i, positions, radius_m, &candidates, out);
  }
}

int SpatialHashGrid::stripe_of(const Vec3& position, int num_lps) const {
  const std::int64_t cx = cell_of(position.x);
  const std::int64_t m = cx % num_lps;
  return static_cast<int>(m < 0 ? m + num_lps : m);
}

void SpatialHashGrid::collect_near_pairs_stripe(const std::vector<Vec3>& positions,
                                                double radius_m, int lp, int num_lps,
                                                std::vector<std::pair<int, int>>* out) const {
  std::vector<int> candidates;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (stripe_of(positions[i], num_lps) != lp) continue;
    collect_pairs_for(i, positions, radius_m, &candidates, out);
  }
}

Airspace::Airspace(const AirspaceConfig& config, std::size_t num_agents)
    : config_(config), num_agents_(num_agents), neighbors_(num_agents) {}

void Airspace::rebuild(const std::vector<Vec3>& positions) {
  expect(positions.size() == num_agents_, "airspace rebuild position count");
  if (!std::isfinite(config_.interaction_radius_m)) {
    // Dense adjacency never changes; materialize it once.
    if (built_) return;
    near_pairs_.clear();
    for (std::size_t i = 0; i < num_agents_; ++i) {
      neighbors_[i].clear();
      for (std::size_t j = 0; j < num_agents_; ++j) {
        if (j != i) neighbors_[i].push_back(static_cast<int>(j));
      }
      for (std::size_t j = i + 1; j < num_agents_; ++j) {
        near_pairs_.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
    built_ = true;
    return;
  }

  near_pairs_.clear();
  for (std::vector<int>& n : neighbors_) n.clear();
  grid_.build(positions, config_.interaction_radius_m);
  const int num_lps = config_.parallel.num_lps;
  expect(num_lps >= 1, "airspace num_lps >= 1");
  if (num_lps == 1) {
    grid_.collect_near_pairs(positions, config_.interaction_radius_m, &near_pairs_);
  } else {
    // Each logical process collects the pairs anchored in its grid-column
    // stripe; the stripes partition the pair set, so sorting the
    // concatenation by (i, j) reproduces the serial lexicographic list
    // exactly — a canonical-order merge, independent of which LP (or
    // thread) finished first.
    lp_pairs_.resize(static_cast<std::size_t>(num_lps));
    for_each_lp(config_.parallel, [&](int lp) {
      std::vector<std::pair<int, int>>& mine = lp_pairs_[static_cast<std::size_t>(lp)];
      mine.clear();
      grid_.collect_near_pairs_stripe(positions, config_.interaction_radius_m, lp, num_lps,
                                      &mine);
    });
    for (const auto& mine : lp_pairs_) {
      near_pairs_.insert(near_pairs_.end(), mine.begin(), mine.end());
    }
    std::sort(near_pairs_.begin(), near_pairs_.end());
  }
  // Lexicographic pair order yields ascending adjacency lists: for agent x
  // the (i, x) contributions (i < x, ascending) all precede the (x, j)
  // ones (j > x, ascending).
  for (const auto& [i, j] : near_pairs_) {
    neighbors_[static_cast<std::size_t>(i)].push_back(j);
    neighbors_[static_cast<std::size_t>(j)].push_back(i);
  }
  built_ = true;
}

}  // namespace cav::sim
