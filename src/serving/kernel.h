// The one multilinear-interpolation kernel behind every table query.
//
// A query is first located on its table (LogicTable::locate,
// JointLogicTable::locate: validation, tau, slab), then prepared (tau
// layers and grid corners) and interpolated.  LogicTable::action_costs
// and JointLogicTable::action_costs run one query through grid_query();
// PolicyServer::query_batch runs a range through grid_query_batch(),
// which prepares query k + kLookAhead and prefetches its values while it
// interpolates query k.  Both are built from the same prepare() and
// interpolate_costs(), so a batch is bit-identical to single queries by
// construction, not by test luck.  The kernel is allocation-free
// (corners scatter into stack arrays) and accumulates per-action sums in
// double in the exact vertex order of the seed implementation, so
// replacing the old per-table loops preserved every simulation pin bit
// for bit.
//
// Value access is a template View so quantized images are served without
// expansion: F32View reads the solved floats (bit-identical), F16View and
// Int8View dequantize at gather time (serving/quantize.h).  Each view
// also prefetches the cache lines a value index reads.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "serving/quantize.h"
#include "util/grid.h"

namespace cav::serving {

struct F32View {
  const float* q;
  float operator()(std::size_t i) const { return q[i]; }
  void prefetch(std::size_t i) const { __builtin_prefetch(q + i); }
};

struct F16View {
  const std::uint16_t* q;
  float operator()(std::size_t i) const { return f16_decode(q[i]); }
  void prefetch(std::size_t i) const { __builtin_prefetch(q + i); }
};

struct Int8View {
  const std::uint8_t* q;
  const float* scale_offset;  ///< interleaved (scale, offset) per block
  std::size_t block_elems;
  float operator()(std::size_t i) const {
    const float* so = scale_offset + 2 * (i / block_elems);
    return so[1] + so[0] * static_cast<float>(q[i]);
  }
  void prefetch(std::size_t i) const {
    __builtin_prefetch(q + i);
    __builtin_prefetch(scale_offset + 2 * (i / block_elems));
  }
};

/// The tau-layer bracketing every vertical table shares: clamp to
/// [0, tau_max], interpolate linearly between integer layers (the seed
/// LogicTable convention, preserved expression for expression).  `tau`
/// must not be NaN; the tables' locate() rejects it.
struct TauBracket {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

inline TauBracket bracket_tau(double tau, std::size_t tau_max) {
  const double t = std::clamp(tau, 0.0, static_cast<double>(tau_max));
  const auto lo = static_cast<std::size_t>(t);
  const std::size_t hi = std::min<std::size_t>(lo + 1, tau_max);
  return {lo, hi, t - static_cast<double>(lo)};
}

/// A query located on its table: the continuous grid point (clamped at
/// the grid's edges when scattered), the first tau layer of its slab (0
/// for the pairwise table, slab * num_tau_layers for the joint table),
/// its tau bracket and its advisory row.
template <std::size_t N>
struct GridQuery {
  std::array<double, N> x;
  std::size_t layer_offset;
  TauBracket tau;
  std::size_t ra;
};

/// A query ready to interpolate.  Entry (layer, vertex, ra, action) lives
/// at ((layer_offset + layer) * grid_size + vertex) * A^2 + ra * A +
/// action, so corner v's A-value run starts at lo + cell[v] in the lower
/// tau layer and at hi + cell[v] in the upper, with cell[v] = the
/// corner's grid flat index * A^2.
template <std::size_t N>
struct PreparedQuery {
  std::size_t lo;  ///< value index of grid vertex 0's run, lower layer
  std::size_t hi;  ///< the same in the upper layer; == lo when one layer
  double frac;     ///< weight of the upper layer
  std::size_t nverts;
  std::size_t cell[std::size_t{1} << N];
  double weight[std::size_t{1} << N];
};

/// Bracket a located query's layers, scatter its corners and prefetch the
/// first and last value of every corner's A-value run in each layer the
/// query reads (a run straddles a cache line about a third of the time).
/// The prefetches sit in the loop that stores the corners because C++
/// lets a compiler delete a loop whose only effect is a prefetch (GCC 12
/// -O3 does).  They pay in the batch loop, which prepares queries ahead;
/// a single query measured no slower with them than without.
template <std::size_t A, std::size_t N, class View>
inline void prepare(const View& q, const GridN<N>& grid, const GridQuery<N>& g,
                    PreparedQuery<N>& p) {
  const std::size_t row = g.ra * A;
  p.lo = (g.layer_offset + g.tau.lo) * grid.size() * (A * A) + row;
  p.hi = (g.layer_offset + g.tau.hi) * grid.size() * (A * A) + row;
  p.frac = g.tau.frac;
  GridVertexWeight verts[std::size_t{1} << N];
  p.nverts = grid.scatter_into(g.x, verts);
  for (std::size_t v = 0; v < p.nverts; ++v) {
    const std::size_t cell = verts[v].flat * (A * A);
    p.cell[v] = cell;
    p.weight[v] = verts[v].weight;
    q.prefetch(p.lo + cell);
    q.prefetch(p.lo + cell + (A - 1));
    if (p.hi != p.lo) {
      q.prefetch(p.hi + cell);
      q.prefetch(p.hi + cell + (A - 1));
    }
  }
}

/// Accumulate the A per-action costs of one prepared query.
///
/// Accumulation order: per accumulator, vertices in scatter order — the
/// same addition sequence as the seed per-action loops, hence
/// bit-identical.  One vertex loop feeds both layers' accumulators;
/// actions are the contiguous inner loop (stride 1) so the compiler
/// vectorizes the multiply-accumulate.
template <std::size_t A, std::size_t N, class View>
inline void interpolate_costs(const View& q, const PreparedQuery<N>& p, double* out) {
  double lo[A] = {};
  if (p.hi == p.lo) {
    for (std::size_t v = 0; v < p.nverts; ++v) {
      const double w = p.weight[v];
      const std::size_t cell = p.lo + p.cell[v];
      for (std::size_t a = 0; a < A; ++a) lo[a] += w * static_cast<double>(q(cell + a));
    }
    for (std::size_t a = 0; a < A; ++a) out[a] = lo[a];
    return;
  }
  double hi[A] = {};
  for (std::size_t v = 0; v < p.nverts; ++v) {
    const double w = p.weight[v];
    const std::size_t cell_lo = p.lo + p.cell[v];
    const std::size_t cell_hi = p.hi + p.cell[v];
    for (std::size_t a = 0; a < A; ++a) {
      lo[a] += w * static_cast<double>(q(cell_lo + a));
      hi[a] += w * static_cast<double>(q(cell_hi + a));
    }
  }
  for (std::size_t a = 0; a < A; ++a) out[a] = lo[a] * (1.0 - p.frac) + hi[a] * p.frac;
}

/// One located query's A costs into `out`: the single-query path.
template <std::size_t A, std::size_t N, class View>
inline void grid_query(const View& q, const GridN<N>& grid, const GridQuery<N>& g,
                       double* out) {
  PreparedQuery<N> p;
  prepare<A>(q, grid, g, p);
  interpolate_costs<A>(q, p, out);
}

/// Queries a batch prepares ahead of the one it interpolates.  In a
/// microbenchmark of 4096-query batches (4-core host), 4 read the same as
/// 8 on the coarse table and 4-7% faster on the standard one; 16 read
/// worse on both.
inline constexpr std::size_t kLookAhead = 4;

/// Queries [begin, end) into out(k) (a double*), query k located by
/// locate(k) (a GridQuery<N>).  A ring of kLookAhead prepared queries
/// overlaps their cache misses: query k + kLookAhead is located and
/// prepared (its values prefetched) into query k's slot right after
/// query k is interpolated.  Each result equals grid_query() on the same query bit
/// for bit.  Queries are located in index order, so the first one
/// locate() rejects is the lowest-index invalid query.
template <std::size_t A, std::size_t N, class View, class Locate, class Out>
inline void grid_query_batch(const View& q, const GridN<N>& grid, std::size_t begin,
                             std::size_t end, const Locate& locate, const Out& out) {
  PreparedQuery<N> ring[kLookAhead];
  const std::size_t ahead = std::min(end - begin, kLookAhead);
  for (std::size_t i = 0; i < ahead; ++i) prepare<A>(q, grid, locate(begin + i), ring[i]);
  for (std::size_t k = begin; k < end; ++k) {
    PreparedQuery<N>& slot = ring[(k - begin) % kLookAhead];
    interpolate_costs<A>(q, slot, out(k));
    if (k + kLookAhead < end) prepare<A>(q, grid, locate(k + kLookAhead), slot);
  }
}

}  // namespace cav::serving
