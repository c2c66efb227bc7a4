// Deterministic pseudo-random number generation and the distributions the
// workload generators need (uniform, Gaussian, exponential, Poisson, Zipf).
//
// We carry our own generator (xoshiro256**) rather than <random> engines so
// results are bit-identical across standard libraries, which keeps test
// expectations and benchmark workloads stable.
#pragma once

#include <cstdint>
#include <cmath>
#include <vector>
#include <stdexcept>

namespace arbd {

// SplitMix64 finalizer (Steele, Lea & Flood): cheap, well-mixed and stable
// across platforms. Seeds Rng and serves as the stateless hash behind every
// seeded decision that must not depend on an RNG stream's position —
// request ids, replica picks, elections, ring points, span ids.
constexpr std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** by Blackman & Vigna; public-domain reference algorithm.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : s_) {
      s = Mix64(x);
      x += 0x9e3779b97f4a7c15ULL;
    }
  }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t NextBelow(std::uint64_t n) {
    // Lemire's nearly-divisionless method would be faster; modulo bias is
    // negligible for our n << 2^64 workloads.
    return NextU64() % n;
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(NextBelow(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller (cached second deviate).
  double Gaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  // Exponential with given rate (events per unit). Used for Poisson arrivals.
  double Exponential(double rate) {
    double u = 0.0;
    while (u <= 1e-300) u = NextDouble();
    return -std::log(u) / rate;
  }

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 50 where Knuth's loop gets slow).
  std::int64_t Poisson(double mean) {
    if (mean <= 0) return 0;
    if (mean > 50.0) {
      const double x = Gaussian(mean, std::sqrt(mean));
      return x < 0 ? 0 : static_cast<std::int64_t>(x + 0.5);
    }
    const double l = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

// Zipf-distributed integers over [0, n). Precomputes the CDF once; sampling
// is a binary search. Good enough for n up to a few million.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double skew) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("ZipfGenerator: n must be > 0");
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  std::size_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    // First bucket whose cumulative mass reaches u.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace arbd
