#include "sim/airspace.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"

namespace cav::sim {

namespace {

/// Cells are this much (relative) wider than the size asked for; see
/// SpatialHashGrid::build.
constexpr double kCellMargin = 1.0 / 4096.0;

/// The pair contract horizontal_distance <= r, i.e. std::hypot(dx, dy) <= r
/// on the very dx = xi - xj, dy = yi - yj the caller forms.  q = dx² + dy²
/// is within a relative 2^-52 of the exact sum (less under FMA
/// contraction), and std::hypot within a few ulps of the exact root, so the
/// two tests agree whenever q lies outside r²·(1 ± 1e-9), a band ~10^6
/// times wider than their combined error; only inside it is hypot called.
/// r² must be a normal double, which also keeps underflow in q (absolute
/// error < 2^-1070) far inside the band.  Both pair collections, the grid's
/// and the direct loop, decide with this one test.
class RadiusTest {
 public:
  explicit RadiusTest(double radius_m)
      : radius_m_(radius_m),
        accept_below_(radius_m * radius_m * (1.0 - kBand)),
        reject_above_(radius_m * radius_m * (1.0 + kBand)) {
    expect(std::isnormal(radius_m * radius_m), "query radius squared must be a normal double");
  }

  bool near(double dx, double dy) const {
    const double q = dx * dx + dy * dy;
    if (q > reject_above_) return false;
    return q < accept_below_ || std::hypot(dx, dy) <= radius_m_;
  }

 private:
  static constexpr double kBand = 1e-9;
  double radius_m_;
  double accept_below_;
  double reject_above_;
};

}  // namespace

void SpatialHashGrid::build(const std::vector<Vec3>& positions, double cell_size_m) {
  expect(cell_size_m > 0.0 && std::isfinite(cell_size_m), "grid cell size must be finite");
  const std::size_t n = positions.size();
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;
  bool finite = true;
  if (n > 0) {
    x_lo = x_hi = positions[0].x;
    y_lo = y_hi = positions[0].y;
  }
  for (const Vec3& p : positions) {
    finite &= std::isfinite(p.x) & std::isfinite(p.y);
    x_lo = std::min(x_lo, p.x);
    x_hi = std::max(x_hi, p.x);
    y_lo = std::min(y_lo, p.y);
    y_hi = std::max(y_hi, p.y);
  }
  expect(finite, "grid positions must be finite");

  // Cell coordinate u = fl(fl(x - x_lo) / cell); the aircraft's cell is
  // floor(u) + 1, so one empty ring of cells surrounds the box.  Cells are
  // a relative 2^-12 wider than asked, so rounding can never put two
  // aircraft within the radius two cells apart: both operations are
  // monotone, each u is within 2^-51·u of its exact value, and u < 2^34
  // (at most 4K + 64 cells, K < 2^31), so two aircraft within
  // r <= cell / (1 + 2^-12) differ in u by less than 1 and in floor(u) by
  // at most 1.  Monotonicity also bounds every aircraft's cell by the
  // box corner's, so the array below holds them all.
  const double max_cells = 4.0 * static_cast<double>(n) + static_cast<double>(kCellSlack);
  double cell = cell_size_m * (1.0 + kCellMargin);
  double columns = 0.0;
  double rows = 0.0;
  for (;;) {
    columns = std::floor((x_hi - x_lo) / cell) + 3.0;
    rows = std::floor((y_hi - y_lo) / cell) + 3.0;
    if (columns * rows <= max_cells) break;
    cell *= 2.0;  // still >= the radius, so the 3×3 stencil still bounds every pair
  }
  cell_size_m_ = cell_size_m;
  columns_ = static_cast<std::size_t>(columns);
  const std::size_t num_cells = columns_ * static_cast<std::size_t>(rows);

  // Counting sort by (cell, index): count, prefix-sum to cell ends, then
  // scatter in descending index order through decrementing cursors, which
  // leaves every cursor at its cell's start and every cell index-sorted.
  cell_of_.resize(n);
  cell_start_.assign(num_cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx = static_cast<std::size_t>(std::floor((positions[i].x - x_lo) / cell)) + 1;
    const auto cy = static_cast<std::size_t>(std::floor((positions[i].y - y_lo) / cell)) + 1;
    const auto c = static_cast<std::uint32_t>(cy * columns_ + cx);
    cell_of_[i] = c;
    ++cell_start_[c];
  }
  for (std::size_t c = 1; c < num_cells; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_start_[num_cells] = static_cast<std::uint32_t>(n);
  members_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    members_[--cell_start_[cell_of_[i]]] = {positions[i].x, positions[i].y, static_cast<int>(i)};
  }
}

void SpatialHashGrid::collect_near_pairs(const std::vector<Vec3>& positions, double radius_m,
                                         std::size_t begin, std::size_t end,
                                         std::vector<std::pair<int, int>>* out) const {
  expect(positions.size() == cell_of_.size(), "grid was built from these positions");
  expect(radius_m <= cell_size_m_, "query radius exceeds the grid cell");
  const RadiusTest test(radius_m);
  const std::size_t row = columns_;
  for (std::size_t i = begin; i < end; ++i) {
    const double xi = positions[i].x;
    const double yi = positions[i].y;
    const int id = static_cast<int>(i);
    const std::size_t mark = out->size();
    // The padding ring keeps every stencil row inside the array.
    const std::size_t c = cell_of_[i];
    for (const std::size_t first : {c - row - 1, c - 1, c + row - 1}) {
      const Member* m = members_.data() + cell_start_[first];
      const Member* const last = members_.data() + cell_start_[first + 3];
      for (; m != last; ++m) {
        if (m->id > id && test.near(xi - m->x, yi - m->y)) out->emplace_back(id, m->id);
      }
    }
    // Stencil rows arrive in (cell, index) order; restore j-ascending.
    std::sort(out->begin() + static_cast<std::ptrdiff_t>(mark), out->end());
  }
}

void collect_near_pairs_direct(const std::vector<Vec3>& positions, double radius_m,
                               std::size_t begin, std::size_t end,
                               std::vector<std::pair<int, int>>* out) {
  const RadiusTest test(radius_m);
  for (std::size_t i = begin; i < end; ++i) {
    const double xi = positions[i].x;
    const double yi = positions[i].y;
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (test.near(xi - positions[j].x, yi - positions[j].y)) {
        out->emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
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
  const double radius_m = config_.interaction_radius_m;
  const bool direct = num_agents_ <= kDirectPairsMaxAgents;
  if (direct) {
    bool finite = true;
    for (const Vec3& p : positions) finite &= std::isfinite(p.x) & std::isfinite(p.y);
    expect(finite, "airspace positions must be finite");
  } else {
    grid_.build(positions, radius_m);
  }
  const int num_lps = config_.parallel.num_lps;
  expect(num_lps >= 1, "airspace num_lps >= 1");
  // LP l collects the pairs whose lower aircraft lies in its index range;
  // each list is lexicographic and the ranges ascend, so concatenating in
  // LP order is the canonical list — independent of which LP (or thread)
  // finished first.  The serial engine is the num_lps == 1 case.
  lp_pairs_.resize(static_cast<std::size_t>(num_lps));
  for_each_lp(config_.parallel, [&](int lp) {
    std::vector<std::pair<int, int>>& mine = lp_pairs_[static_cast<std::size_t>(lp)];
    mine.clear();
    const auto [begin, end] = lp_index_range(lp, num_lps, num_agents_);
    if (direct) {
      collect_near_pairs_direct(positions, radius_m, begin, end, &mine);
    } else {
      grid_.collect_near_pairs(positions, radius_m, begin, end, &mine);
    }
  });
  for (const auto& mine : lp_pairs_) {
    near_pairs_.insert(near_pairs_.end(), mine.begin(), mine.end());
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
