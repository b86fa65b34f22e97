#include "util/grid.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace cav {
namespace {

TEST(UniformAxis, BasicProperties) {
  const UniformAxis axis(-10.0, 10.0, 21);
  EXPECT_DOUBLE_EQ(axis.lo(), -10.0);
  EXPECT_DOUBLE_EQ(axis.hi(), 10.0);
  EXPECT_DOUBLE_EQ(axis.step(), 1.0);
  EXPECT_EQ(axis.count(), 21U);
  EXPECT_DOUBLE_EQ(axis.value(0), -10.0);
  EXPECT_DOUBLE_EQ(axis.value(10), 0.0);
  EXPECT_DOUBLE_EQ(axis.value(20), 10.0);
}

TEST(UniformAxis, RejectsDegenerate) {
  EXPECT_THROW(UniformAxis(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(UniformAxis(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(UniformAxis(2.0, 1.0, 5), std::invalid_argument);
}

TEST(UniformAxis, NearestClamping) {
  const UniformAxis axis(0.0, 10.0, 11);
  EXPECT_EQ(axis.nearest(-100.0), 0U);
  EXPECT_EQ(axis.nearest(100.0), 10U);
  EXPECT_EQ(axis.nearest(4.4), 4U);
  EXPECT_EQ(axis.nearest(4.6), 5U);
}

TEST(UniformAxis, BracketInterior) {
  const UniformAxis axis(0.0, 10.0, 11);
  const auto b = axis.bracket(3.25);
  EXPECT_EQ(b.index, 3U);
  EXPECT_NEAR(b.frac, 0.25, 1e-12);
}

TEST(UniformAxis, BracketClampsOutside) {
  const UniformAxis axis(0.0, 10.0, 11);
  const auto lo = axis.bracket(-5.0);
  EXPECT_EQ(lo.index, 0U);
  EXPECT_DOUBLE_EQ(lo.frac, 0.0);
  const auto hi = axis.bracket(25.0);
  EXPECT_EQ(hi.index, 9U);
  EXPECT_DOUBLE_EQ(hi.frac, 1.0);
}

class Grid3Test : public ::testing::Test {
 protected:
  GridN<3> grid_{std::array<UniformAxis, 3>{UniformAxis(0.0, 4.0, 5), UniformAxis(-2.0, 2.0, 5),
                                            UniformAxis(0.0, 1.0, 3)}};
};

TEST_F(Grid3Test, SizeAndIndexRoundTrip) {
  EXPECT_EQ(grid_.size(), 5U * 5U * 3U);
  for (std::size_t flat = 0; flat < grid_.size(); ++flat) {
    EXPECT_EQ(grid_.flat_index(grid_.unflatten(flat)), flat);
  }
}

TEST_F(Grid3Test, ScatterWeightsSumToOne) {
  RngStream rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::array<double, 3> p{rng.uniform(-1.0, 5.0), rng.uniform(-3.0, 3.0),
                                  rng.uniform(-0.5, 1.5)};
    const auto verts = grid_.scatter(p);
    double sum = 0.0;
    for (const auto& v : verts) {
      EXPECT_GT(v.weight, 0.0);
      EXPECT_LT(v.flat, grid_.size());
      sum += v.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_F(Grid3Test, ScatterOnVertexIsSinglePoint) {
  const std::array<std::size_t, 3> idx{2, 3, 1};
  const auto verts = grid_.scatter(grid_.point(idx));
  ASSERT_EQ(verts.size(), 1U);
  EXPECT_EQ(verts[0].flat, grid_.flat_index(idx));
  EXPECT_DOUBLE_EQ(verts[0].weight, 1.0);
}

TEST_F(Grid3Test, InterpolationExactOnVertices) {
  std::vector<double> values(grid_.size());
  RngStream rng(10);
  for (auto& v : values) v = rng.uniform(-5.0, 5.0);
  for (std::size_t flat = 0; flat < grid_.size(); ++flat) {
    const auto p = grid_.point(grid_.unflatten(flat));
    EXPECT_NEAR(grid_.interpolate(values, p), values[flat], 1e-12);
  }
}

TEST_F(Grid3Test, InterpolationReproducesLinearFunctions) {
  // Multilinear interpolation is exact for f = a + b*x + c*y + d*z.
  const auto f = [](const std::array<double, 3>& p) {
    return 1.5 + 2.0 * p[0] - 3.0 * p[1] + 0.5 * p[2];
  };
  std::vector<double> values(grid_.size());
  for (std::size_t flat = 0; flat < grid_.size(); ++flat) {
    values[flat] = f(grid_.point(grid_.unflatten(flat)));
  }
  RngStream rng(11);
  for (int i = 0; i < 300; ++i) {
    const std::array<double, 3> p{rng.uniform(0.0, 4.0), rng.uniform(-2.0, 2.0),
                                  rng.uniform(0.0, 1.0)};
    EXPECT_NEAR(grid_.interpolate(values, p), f(p), 1e-9);
  }
}

TEST_F(Grid3Test, InterpolationClampsOutside) {
  std::vector<double> values(grid_.size(), 0.0);
  // Mark the (0, *, *) face.
  for (std::size_t flat = 0; flat < grid_.size(); ++flat) {
    if (grid_.unflatten(flat)[0] == 0) values[flat] = 7.0;
  }
  // Far left of the axis: should read the clamped face value.
  EXPECT_NEAR(grid_.interpolate(values, {-100.0, 0.0, 0.5}), 7.0, 1e-12);
}

TEST(Grid1, OneDimensionalInterpolation) {
  GridN<1> grid{std::array<UniformAxis, 1>{UniformAxis(0.0, 10.0, 11)}};
  std::vector<double> values(grid.size());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i * i);
  EXPECT_NEAR(grid.interpolate(values, {3.5}), (9.0 + 16.0) / 2.0, 1e-12);
}

// ---------------------------------------------------------------------------
// One corner construction: scatter_into (per-axis factors and offsets) and
// interpolate (which calls it) against the per-corner loop they replaced,
// kept here as the oracle.  Count, order, flat index and weight must match
// bit for bit, and so must the interpolated value.

template <std::size_t N>
struct CornerOracle {
  std::array<UniformAxis, N> axes;
  std::array<std::size_t, N> strides{};

  explicit CornerOracle(const std::array<UniformAxis, N>& a) : axes(a) {
    strides[N - 1] = 1;
    for (std::size_t d = N - 1; d > 0; --d) strides[d - 1] = strides[d] * axes[d].count();
  }

  /// The per-corner loop: w starts at 1 and multiplies every axis's side.
  std::vector<GridVertexWeight> scatter(const std::array<double, N>& x) const {
    std::array<UniformAxis::Bracket, N> br{};
    for (std::size_t d = 0; d < N; ++d) br[d] = axes[d].bracket(x[d]);
    std::vector<GridVertexWeight> out;
    for (std::size_t corner = 0; corner < (std::size_t{1} << N); ++corner) {
      double w = 1.0;
      std::size_t flat = 0;
      for (std::size_t d = 0; d < N; ++d) {
        const bool hi = (corner >> d) & 1U;
        w *= hi ? br[d].frac : (1.0 - br[d].frac);
        flat += (br[d].index + (hi ? 1 : 0)) * strides[d];
      }
      if (w > 0.0) out.push_back({flat, w});
    }
    return out;
  }

  double interpolate(const std::vector<double>& values, const std::array<double, N>& x) const {
    double acc = 0.0;
    for (const GridVertexWeight& v : scatter(x)) acc += v.weight * values[v.flat];
    return acc;
  }
};

/// A coordinate on `axis` of one of the kinds the corner construction must
/// agree on: random (inside or 20% past either end), exactly on a vertex,
/// one ulp either side of a vertex or of an axis end, or far outside
/// (infinities included).
double corner_probe(const UniformAxis& axis, RngStream& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double pad = 0.2 * (axis.hi() - axis.lo());
  const auto vertex = [&] {
    return axis.value(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(axis.count()) - 1)));
  };
  switch (rng.uniform_int(0, 8)) {
    case 0: return rng.uniform(axis.lo() - pad, axis.hi() + pad);
    case 1: return vertex();
    case 2: return std::nextafter(vertex(), inf);
    case 3: return std::nextafter(vertex(), -inf);
    case 4: return std::nextafter(rng.uniform_int(0, 1) == 0 ? axis.lo() : axis.hi(), inf);
    case 5: return std::nextafter(rng.uniform_int(0, 1) == 0 ? axis.lo() : axis.hi(), -inf);
    case 6: return rng.uniform_int(0, 1) == 0 ? axis.lo() - 1e6 : axis.hi() + 1e6;
    case 7: return rng.uniform_int(0, 1) == 0 ? -inf : inf;
    default: return rng.uniform(axis.lo(), axis.hi());
  }
}

template <std::size_t N>
void expect_corners_match_oracle(const std::array<UniformAxis, N>& axes, std::uint64_t seed) {
  const GridN<N> grid(axes);
  const CornerOracle<N> oracle(axes);
  RngStream rng(seed);
  std::vector<double> values(grid.size());
  for (auto& v : values) v = rng.uniform(-500.0, 500.0);
  for (int i = 0; i < 20000; ++i) {
    std::array<double, N> x{};
    for (std::size_t d = 0; d < N; ++d) x[d] = corner_probe(axes[d], rng);
    const std::vector<GridVertexWeight> want = oracle.scatter(x);
    GridVertexWeight got[std::size_t{1} << N];
    const std::size_t n = grid.scatter_into(x, got);
    ASSERT_EQ(n, want.size()) << "N = " << N << ", point " << i;
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_EQ(got[v].flat, want[v].flat) << "N = " << N << ", point " << i << ", corner " << v;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[v].weight),
                std::bit_cast<std::uint64_t>(want[v].weight))
          << "N = " << N << ", point " << i << ", corner " << v;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(grid.interpolate(values, x)),
              std::bit_cast<std::uint64_t>(oracle.interpolate(values, x)))
        << "N = " << N << ", point " << i;
  }
}

TEST(GridCorners, ScatterAndInterpolateMatchThePerCornerLoopBitForBit) {
  // Axes with steps that are not binary fractions, so brackets round.
  const UniformAxis h(-1000.0, 1000.0, 21);
  const UniformAxis rate(-2500.0 / 60.0, 2500.0 / 60.0, 9);
  const UniformAxis small(0.1, 0.7, 4);
  const UniformAxis two(-3.0, 7.0, 2);
  expect_corners_match_oracle<1>({rate}, 101);
  expect_corners_match_oracle<2>({h, small}, 102);
  expect_corners_match_oracle<3>({h, rate, rate}, 103);
  expect_corners_match_oracle<4>({h, rate, two, small}, 104);
}

/// Property sweep: interpolation stays within [min, max] of vertex values
/// (convex combination) across random value sets and query points.
class GridConvexityTest : public ::testing::TestWithParam<int> {};

TEST_P(GridConvexityTest, InterpolationIsConvexCombination) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()));
  GridN<2> grid{std::array<UniformAxis, 2>{UniformAxis(0.0, 1.0, 4), UniformAxis(0.0, 1.0, 6)}};
  std::vector<double> values(grid.size());
  double lo = 1e30;
  double hi = -1e30;
  for (auto& v : values) {
    v = rng.uniform(-10.0, 10.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (int i = 0; i < 100; ++i) {
    const double q =
        grid.interpolate(values, {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)});
    EXPECT_GE(q, lo - 1e-9);
    EXPECT_LE(q, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridConvexityTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace cav
