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
//   gaussian    z * stddev + mean, with z from a 256-layer ziggurat
//               (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) in a 64-bit
//               form like numpy's random_standard_normal; the bit layout
//               below is this file's own
//   discrete    u = unit * sum(w) (summed left to right); the first k with
//               w_k > 0 and u < the running sum through k, else the last k
//               with w_k > 0
//
// The ziggurat's tables, built once per process at first use, with
// f(x) = exp(-x^2 / 2), r = 3.6541528853610088, v = 0.00492867323399 and
// q = v / f(r):
//
//   k[0] = (r / q) * 2^52, k[1] = 0       k[i] are uint64, truncated
//   w[0] = q / 2^52, w[255] = r / 2^52
//   f[0] = 1, f[255] = f(r)
//   x_prev = r; for i = 254 ... 1:
//     x = sqrt(-2 log(v / x_prev + f(x_prev)))
//     k[i + 1] = (x / x_prev) * 2^52, f[i] = f(x), w[i] = x / 2^52
//     x_prev = x
//
// One standard normal z:
//
//   u = next_u64(); i = u & 0xff (layer); sign = bit 8 of u; a = u >> 12
//   x = a * w[i]
//   fast path   a < k[i]: return +-x                        (~98.5% of draws)
//   tail        i == 0: xx = -log(1 - unit()) / r, yy = -log(1 - unit()),
//               redrawn while 2 yy < xx^2; return +-(r + xx)
//   wedge       otherwise: return +-x when
//               f[i] + unit() * (f[i - 1] - f[i]) < exp(-x^2 / 2),
//               else start again with a new u
//
// where +-y is y with `sign` XORed into its sign bit.
//
// A stream is 32 bytes of engine state and nothing else, so a copy continues
// exactly where the original does.  Reproducibility rests on IEEE-754 double
// arithmetic plus libm's exp and log, used in the table build, the wedge and
// the tail (sqrt is correctly rounded), not on the C++ standard library's
// engines or distribution algorithms.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
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

  /// Gaussian with the given mean and standard deviation.
  double gaussian(double mean, double stddev) { return standard_normal() * stddev + mean; }

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

  /// The 256-layer ziggurat's tables (see the spec at the top of this file).
  /// The fast path reads only `layers`, 16 bytes per layer.
  struct Ziggurat {
    static constexpr double kR = 3.6541528853610088;
    static constexpr double kV = 0.00492867323399;

    struct Layer {
      std::uint64_t k;  ///< a < k: the layer's abscissa a * w lies under the curve
      double w;         ///< abscissa scale: x = a * w
    };
    std::array<Layer, 256> layers{};
    std::array<double, 256> f{};  ///< exp(-x^2 / 2) at each layer's edge

    Ziggurat() {
      const auto density = [](double x) { return std::exp(-0.5 * x * x); };
      const double q = kV / density(kR);
      layers[0] = {static_cast<std::uint64_t>((kR / q) * 0x1.0p52), q * 0x1.0p-52};
      layers[1].k = 0;
      layers[255].w = kR * 0x1.0p-52;
      f[0] = 1.0;
      f[255] = density(kR);
      double x_prev = kR;
      for (std::size_t i = 254; i >= 1; --i) {
        const double x = std::sqrt(-2.0 * std::log(kV / x_prev + density(x_prev)));
        layers[i + 1].k = static_cast<std::uint64_t>((x / x_prev) * 0x1.0p52);
        f[i] = density(x);
        layers[i].w = x * 0x1.0p-52;
        x_prev = x;
      }
    }
  };

  /// Built at first use; a function-local static is thread-safe and immune to
  /// static-initialization order.
  static const Ziggurat& ziggurat() {
    static const Ziggurat tables;
    return tables;
  }

  /// One ziggurat draw, as specified at the top of this file.
  double standard_normal() {
    const Ziggurat& z = ziggurat();
    for (;;) {
      const std::uint64_t u = next_u64();
      const std::size_t i = u & 0xff;
      const std::uint64_t sign = (u & 0x100) << 55;  // bit 8 -> the sign bit
      const std::uint64_t a = u >> 12;
      const double x = static_cast<double>(a) * z.layers[i].w;
      if (a < z.layers[i].k) return with_sign(x, sign);
      if (i == 0) {
        double xx = 0.0;
        double yy = 0.0;
        do {
          xx = -std::log(1.0 - unit()) / Ziggurat::kR;
          yy = -std::log(1.0 - unit());
        } while (2.0 * yy < xx * xx);
        return with_sign(Ziggurat::kR + xx, sign);
      }
      if (z.f[i] + unit() * (z.f[i - 1] - z.f[i]) < std::exp(-0.5 * x * x)) {
        return with_sign(x, sign);
      }
    }
  }

  static double with_sign(double x, std::uint64_t sign) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ sign);
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace cav
