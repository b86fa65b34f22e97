#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace cav {
namespace {

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedDifferentSequence) {
  RngStream a(42);
  RngStream b(43);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeriveIsDeterministic) {
  RngStream a = RngStream::derive(7, "purpose", 1, 2);
  RngStream b = RngStream::derive(7, "purpose", 1, 2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveSeparatesPurposes) {
  RngStream a = RngStream::derive(7, "adsb", 0);
  RngStream b = RngStream::derive(7, "disturbance", 0);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveSeparatesIndices) {
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 64; ++i) {
    firsts.insert(RngStream::derive(7, "x", i).next_u64());
  }
  EXPECT_EQ(firsts.size(), 64U);  // no collisions across 64 derived streams
}

TEST(Rng, UniformWithinBounds) {
  RngStream rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  RngStream rng(2);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    const int v = rng.uniform_int(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, GaussianMoments) {
  RngStream rng(3);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ChanceExtremes) {
  RngStream rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  RngStream rng(5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, DiscreteFollowsWeights) {
  RngStream rng(6);
  const std::array<double, 3> weights{0.5, 0.15, 0.35};
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.discrete(weights))];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.15, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.35, 0.02);
}

TEST(Rng, Mix64AvalanchesSingleBit) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = mix64(0x1234'5678'9abc'def0ULL);
  const std::uint64_t b = mix64(0x1234'5678'9abc'def1ULL);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(Rng, HashStringDistinguishes) {
  EXPECT_NE(hash_string("adsb"), hash_string("adsc"));
  EXPECT_NE(hash_string(""), hash_string(" "));
  EXPECT_EQ(hash_string("same"), hash_string("same"));
}

// ---- The engine and the fixed distributions (see the spec in rng.h) ----

// The first outputs of xoshiro256++ from state {1, 2, 3, 4}, as published
// with the reference implementation.
constexpr std::array<std::uint64_t, 4> kXoshiroReference{41943041ULL, 58720359ULL,
                                                         3588806011781223ULL,
                                                         3591011842654386ULL};

constexpr std::array<std::uint64_t, 4> first_four_from_1234() {
  std::array<std::uint64_t, 4> s{1, 2, 3, 4};
  std::array<std::uint64_t, 4> out{};
  for (auto& o : out) o = xoshiro256pp(s);
  return out;
}

static_assert(first_four_from_1234() == kXoshiroReference);
static_assert(sizeof(RngStream) <= 48);

TEST(Rng, EngineMatchesXoshiroReferenceSequence) {
  std::array<std::uint64_t, 4> s{1, 2, 3, 4};
  for (const std::uint64_t expected : kXoshiroReference) EXPECT_EQ(xoshiro256pp(s), expected);
}

// Exact pins of two streams.  Every build type and sanitizer configuration
// must reproduce these (the Gaussian pins also rest on libm's log); a change
// here changes every per-seed number in the repo.
TEST(Rng, StreamPinsSeedZero) {
  RngStream bits(0);
  EXPECT_EQ(bits.next_u64(), 0x84f09bf307c1073aULL);
  EXPECT_EQ(bits.next_u64(), 0xc82ffb597ceee51bULL);
  EXPECT_EQ(bits.next_u64(), 0xadf96905c5df4417ULL);
  EXPECT_EQ(bits.next_u64(), 0xe9d9a8489d042c93ULL);
  RngStream normal(0);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 1.5070097732377745);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 0.10312663758591085);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 0.59044524029566392);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 0.2564499273147296);
}

TEST(Rng, StreamPinsDerived) {
  RngStream bits = RngStream::derive(7, "adsb", 3);
  EXPECT_EQ(bits.next_u64(), 0x3af18b0a511e7660ULL);
  EXPECT_EQ(bits.next_u64(), 0xbb05cc03ad922319ULL);
  EXPECT_EQ(bits.next_u64(), 0xea9213cc8d94d780ULL);
  EXPECT_EQ(bits.next_u64(), 0x18bb2f29d56c36f0ULL);
  RngStream normal = RngStream::derive(7, "adsb", 3);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 0.76091857172387944);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), -0.89027445014880113);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), 0.35309892260250519);
  EXPECT_EQ(normal.gaussian(0.0, 1.0), -1.3084715732017851);
}

// One-sample Kolmogorov-Smirnov statistic of `x` against the CDF `cdf`.
template <typename Cdf>
double ks_statistic(std::vector<double> x, Cdf cdf) {
  std::sort(x.begin(), x.end());
  const double n = static_cast<double>(x.size());
  double d = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double f = cdf(x[i]);
    d = std::max({d, (static_cast<double>(i) + 1.0) / n - f, f - static_cast<double>(i) / n});
  }
  return d;
}

// Critical value of D at alpha = 0.001 for large n: 1.95 / sqrt(n).
double ks_critical(std::size_t n) { return 1.95 / std::sqrt(static_cast<double>(n)); }

TEST(Rng, GaussianFitsTheNormalCdf) {
  RngStream rng(11);
  std::vector<double> x(100000);
  for (double& v : x) v = rng.gaussian(0.0, 1.0);
  const double d = ks_statistic(x, [](double v) { return 0.5 * std::erfc(-v / std::sqrt(2.0)); });
  EXPECT_LT(d, ks_critical(x.size()));
}

TEST(Rng, UnitDrawsFitTheUniformCdf) {
  RngStream rng(12);
  std::vector<double> x(100000);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  EXPECT_LT(ks_statistic(x, [](double v) { return v; }), ks_critical(x.size()));
}

TEST(Rng, UniformIntPassesChiSquare) {
  RngStream rng(13);
  constexpr int kCells = 7;
  constexpr int kDraws = 70000;
  std::array<int, kCells> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, kCells - 1))];
  const double expected = static_cast<double>(kDraws) / kCells;
  double chi2 = 0.0;
  for (const int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 22.46);  // df 6, alpha = 0.001
}

TEST(Rng, UniformIntFullRangeUsesTheHighWord) {
  // range = 2^32 divides 2^64, so no draw is rejected and the result is the
  // high 32 bits of the engine output, offset by INT_MIN.
  RngStream rng(14);
  RngStream bits = rng;
  bool negative = false;
  bool positive = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(INT_MIN, INT_MAX);
    EXPECT_EQ(static_cast<std::int64_t>(v),
              static_cast<std::int64_t>(INT_MIN) + static_cast<std::int64_t>(bits.next_u64() >> 32));
    negative = negative || v < 0;
    positive = positive || v > 0;
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
}

TEST(Rng, UniformIntSingletonRange) {
  RngStream rng(15);
  RngStream bits = rng;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
  for (int i = 0; i < 100; ++i) bits.next_u64();
  EXPECT_EQ(rng.next_u64(), bits.next_u64());  // one engine step per draw
}

TEST(Rng, DiscreteNeverPicksAZeroWeight) {
  RngStream rng(16);
  const std::array<double, 7> weights{0.0, 1.0, 0.0, 0.0, 2.5, 1e-300, 0.0};
  std::array<int, 7> counts{};
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<std::size_t>(rng.discrete(weights))];
  for (std::size_t k = 0; k < weights.size(); ++k) {
    if (weights[k] == 0.0) EXPECT_EQ(counts[k], 0) << "index " << k;
  }
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[4], counts[1]);
  // A single positive weight among zeros is always the pick.
  const std::vector<int> lone{0, 0, 3, 0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.discrete(lone), 2);
}

TEST(Rng, CopyBetweenPolarHalvesKeepsTheSpare) {
  RngStream a(17);
  a.gaussian(0.0, 1.0);  // first half of a pair; the second is cached
  RngStream b = a;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.gaussian(2.0, 3.0), b.gaussian(2.0, 3.0));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace cav
