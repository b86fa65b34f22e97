// Deterministic random-number streams.
//
// Every stochastic component in the library draws from an RngStream that is
// derived from (master seed, purpose string, indices...).  Deriving rather
// than sharing engines guarantees that (a) runs are reproducible from one
// seed, and (b) evaluating individuals in parallel yields bit-identical
// results to a serial evaluation, because no stream order depends on thread
// scheduling.
//
// The engine and every distribution are defined here, not taken from the
// C++ standard library, so a stream's numbers do not depend on which
// standard library built the binary:
//
//   state       s[k] = mix64(mix64(seed) + k * 0x9e3779b97f4a7c15), k = 0..3
//               (splitmix64 started at mix64(seed))
//   next_u64    xoshiro256++ (Blackman & Vigna), see xoshiro256pp() below
//   unit        (next_u64() >> 11) * 2^-53, in [0, 1)
//   uniform     (hi - lo) * unit + lo
//   chance(p)   unit < p
//   uniform_int Lemire's multiply-shift with rejection: range = hi - lo + 1;
//               m = next_u64() * range in 128 bits; redraw while
//               low64(m) < (2^64 - range) mod range; return lo + high64(m)
//   gaussian    Marsaglia polar: x = 2 unit - 1, then y = 2 unit - 1, redraw
//               while r2 = x^2 + y^2 is > 1 or == 0; m = sqrt(-2 log(r2) / r2);
//               return y m and keep x m as the spare for the next call
//   discrete    u = unit * sum(w) (summed left to right); the first k with
//               w_k > 0 and u < the running sum through k, else the last k
//               with w_k > 0
//
// A stream is 48 bytes: 32 of engine state, the cached Gaussian spare and its
// flag.  Copying a stream copies the spare too.  Reproducibility rests on
// IEEE-754 double arithmetic and libm's log (sqrt is correctly rounded), not
// on the C++ standard library's engines or distribution algorithms.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace cav {

/// 64-bit mix (splitmix64 finalizer).  Used to spread structured seed
/// material (seed, indices) into well-distributed engine seeds.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string, for turning purpose tags into seed material.
constexpr std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One xoshiro256++ step: returns the next output and advances `s`.
constexpr std::uint64_t xoshiro256pp(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = std::rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return result;
}

/// A self-contained random stream: xoshiro256++ with the fixed draws listed
/// at the top of this file.  Cheap to construct, so make one per
/// (purpose, index).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) {
    const std::uint64_t base = mix64(seed);
    for (std::uint64_t k = 0; k < 4; ++k) s_[k] = mix64(base + k * 0x9e3779b97f4a7c15ULL);
  }

  /// Derive an independent stream: hash the parent seed material with a
  /// purpose tag and up to two indices.
  static RngStream derive(std::uint64_t master, std::string_view purpose,
                          std::uint64_t i = 0, std::uint64_t j = 0) {
    std::uint64_t s = mix64(master ^ hash_string(purpose));
    s = mix64(s ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    s = mix64(s ^ (0xc2b2ae3d27d4eb4fULL * (j + 1)));
    return RngStream(s);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return (hi - lo) * unit() + lo; }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    const auto range = static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
    const std::uint64_t threshold = (0 - range) % range;  // (2^64 - range) mod range
    auto m = static_cast<unsigned __int128>(next_u64()) * range;
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<unsigned __int128>(next_u64()) * range;
    }
    return static_cast<int>(lo + static_cast<std::int64_t>(m >> 64));
  }

  /// Gaussian with the given mean and standard deviation.  Draws come in
  /// polar pairs; the second of each pair is served by the next call.
  double gaussian(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return spare_ * stddev + mean;
    }
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * unit() - 1.0;
      y = 2.0 * unit() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double m = std::sqrt(-2.0 * std::log(r2) / r2);
    spare_ = x * m;
    has_spare_ = true;
    return (y * m) * stddev + mean;
  }

  /// Bernoulli draw.
  bool chance(double p) { return unit() < p; }

  /// Sample an index from a discrete distribution given by weights.
  /// Weights need not be normalized; at least one must be positive.
  template <typename Container>
  int discrete(const Container& weights) {
    double total = 0.0;
    for (const auto w : weights) total += static_cast<double>(w);
    const double u = unit() * total;
    double running = 0.0;
    int last_positive = -1;
    int k = 0;
    for (const auto w : weights) {
      running += static_cast<double>(w);
      if (w > 0) {
        if (u < running) return k;
        last_positive = k;
      }
      ++k;
    }
    return last_positive;
  }

  std::uint64_t next_u64() { return xoshiro256pp(s_); }

 private:
  /// Uniform double in [0, 1) from the top 53 bits of one output.
  double unit() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace cav
