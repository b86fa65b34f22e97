// Uniform grids and multilinear interpolation.
//
// The ACAS X logic table stores costs on a rectangular grid over the
// continuous state variables (relative altitude, vertical rates) and the
// online logic evaluates off-grid states by multilinear interpolation —
// exactly the "sampling and interpolation" machinery the paper lists among
// the new process's challenge sources (§IV).  The same code also spreads
// off-grid *next states* onto grid vertices during offline solving.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace cav {

/// A uniformly spaced axis: points lo, lo+step, ..., hi (count points).
class UniformAxis {
 public:
  UniformAxis() = default;
  UniformAxis(double lo, double hi, std::size_t count) : lo_(lo), hi_(hi), count_(count) {
    if (count < 2) throw std::invalid_argument("UniformAxis needs at least 2 points");
    if (!(hi > lo)) throw std::invalid_argument("UniformAxis needs hi > lo");
    step_ = (hi - lo) / static_cast<double>(count - 1);
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double step() const { return step_; }
  std::size_t count() const { return count_; }

  /// Coordinate of grid point i.
  double value(std::size_t i) const { return lo_ + step_ * static_cast<double>(i); }

  /// Index of the nearest grid point to x (clamped to the axis).
  std::size_t nearest(double x) const {
    if (x <= lo_) return 0;
    if (x >= hi_) return count_ - 1;
    return static_cast<std::size_t>((x - lo_) / step_ + 0.5);
  }

  /// Lower bracketing index and fractional position for interpolation.
  /// x outside the axis, +-inf included, is clamped to the boundary
  /// (fraction 0 or 1).  x must not be NaN, which would be cast to the
  /// index; the table queries reject it first (LogicTable::locate).
  struct Bracket {
    std::size_t index;  ///< lower vertex, in [0, count-2]
    double frac;        ///< in [0, 1]
  };
  Bracket bracket(double x) const {
    if (x <= lo_) return {0, 0.0};
    if (x >= hi_) return {count_ - 2, 1.0};
    const double t = (x - lo_) / step_;
    auto i = static_cast<std::size_t>(t);
    if (i > count_ - 2) i = count_ - 2;
    return {i, t - static_cast<double>(i)};
  }

  bool operator==(const UniformAxis&) const = default;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  double step_ = 1.0;
  std::size_t count_ = 2;
};

/// Weighted grid vertex produced by scattering a continuous point onto a
/// rectangular grid: `flat` is the row-major flat index, `weight` the
/// multilinear weight (all weights for one point sum to 1).
struct GridVertexWeight {
  std::size_t flat;
  double weight;
};

/// An N-dimensional rectangular grid (compile-time rank) supporting flat
/// indexing and multilinear interpolation.
template <std::size_t N>
class GridN {
 public:
  GridN() = default;
  explicit GridN(std::array<UniformAxis, N> axes) : axes_(std::move(axes)) {
    strides_[N - 1] = 1;
    for (std::size_t d = N - 1; d > 0; --d) {
      strides_[d - 1] = strides_[d] * axes_[d].count();
    }
    size_ = strides_[0] * axes_[0].count();
  }

  const UniformAxis& axis(std::size_t d) const { return axes_[d]; }
  std::size_t size() const { return size_; }

  /// Row-major flat index of a vertex.
  std::size_t flat_index(const std::array<std::size_t, N>& idx) const {
    std::size_t f = 0;
    for (std::size_t d = 0; d < N; ++d) f += idx[d] * strides_[d];
    return f;
  }

  /// Inverse of flat_index.
  std::array<std::size_t, N> unflatten(std::size_t flat) const {
    std::array<std::size_t, N> idx{};
    for (std::size_t d = 0; d < N; ++d) {
      idx[d] = flat / strides_[d];
      flat %= strides_[d];
    }
    return idx;
  }

  /// Coordinates of a vertex.
  std::array<double, N> point(const std::array<std::size_t, N>& idx) const {
    std::array<double, N> p{};
    for (std::size_t d = 0; d < N; ++d) p[d] = axes_[d].value(idx[d]);
    return p;
  }

  /// Scatter a continuous point onto the up-to-2^N surrounding vertices
  /// with multilinear weights.  Out-of-range coordinates are clamped, which
  /// matches the table boundary behaviour of the ACAS X reports.
  /// Vertices with zero weight are omitted.
  std::vector<GridVertexWeight> scatter(const std::array<double, N>& x) const {
    std::vector<GridVertexWeight> out(std::size_t{1} << N);
    out.resize(scatter_into(x, out.data()));
    return out;
  }

  /// Allocation-free scatter for hot query paths (serving/kernel.h) and
  /// the stencil compiler: writes the same vertex set as scatter(), in the
  /// same order, into `out` (capacity >= 2^N) and returns the count.
  ///
  /// Each axis is bracketed once, into the factors {1 - frac, frac} and
  /// the offsets {i * stride, (i + 1) * stride}.  A corner's weight is the
  /// left-to-right product of its axes' factors (axis 0 first), its flat
  /// index the exact sum of their offsets; corner c takes axis d's upper
  /// side when bit d of c is set.  Zero-weight corners are dropped, so a
  /// point on a vertex scatters to that one vertex.
  std::size_t scatter_into(const std::array<double, N>& x, GridVertexWeight* out) const {
    std::array<std::array<double, 2>, N> factor{};
    std::array<std::array<std::size_t, 2>, N> offset{};
    for (std::size_t d = 0; d < N; ++d) {
      const UniformAxis::Bracket br = axes_[d].bracket(x[d]);
      factor[d] = {1.0 - br.frac, br.frac};
      offset[d] = {br.index * strides_[d], (br.index + 1) * strides_[d]};
    }

    std::size_t n = 0;
    for (std::size_t corner = 0; corner < (std::size_t{1} << N); ++corner) {
      double w = factor[0][corner & 1U];
      std::size_t flat = offset[0][corner & 1U];
      for (std::size_t d = 1; d < N; ++d) {
        const std::size_t side = (corner >> d) & 1U;
        w *= factor[d][side];
        flat += offset[d][side];
      }
      if (w > 0.0) out[n++] = {flat, w};
    }
    return n;
  }

  /// Multilinear interpolation of `values` (one value per vertex, flat
  /// row-major layout) at a continuous point: the scatter_into() vertices'
  /// weighted sum, in their order.
  template <typename ValueContainer>
  double interpolate(const ValueContainer& values, const std::array<double, N>& x) const {
    GridVertexWeight verts[std::size_t{1} << N];
    const std::size_t n = scatter_into(x, verts);
    double acc = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      acc += verts[v].weight * static_cast<double>(values[verts[v].flat]);
    }
    return acc;
  }

 private:
  std::array<UniformAxis, N> axes_{};
  std::array<std::size_t, N> strides_{};
  std::size_t size_ = 0;
};

}  // namespace cav
