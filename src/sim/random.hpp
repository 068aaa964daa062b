// Deterministic random-number utilities.
//
// Every stochastic component takes an explicit Rng (or a seed) so that any
// run — test, example, or benchmark — is exactly reproducible.
#pragma once

#include <cassert>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace adcp::sim {

/// splitmix64 finalizer: cheap, well mixed, dependency-free. Every hash in
/// the simulator (TM placement, ECMP, flow signatures, sketches, trace
/// sampling, per-component seeds) is this one function.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

/// Seedable random source with the distributions the workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'ad09'c0f1'0e55ULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform01() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    assert(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli trial with probability `p` of true.
  bool chance(double p) { return uniform01() < p; }

  /// Picks a uniformly random element index for a container of `size` items.
  std::size_t index(std::size_t size) {
    assert(size > 0);
    return static_cast<std::size_t>(uniform(0, size - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Zipf-distributed integer sampler over [0, n); higher `skew` concentrates
/// probability on low ranks. Used by the key-value workloads (NetCache-style
/// skewed key popularity). Probabilities are precomputed so sampling is O(log n).
class Zipf {
 public:
  Zipf(std::size_t n, double skew);

  /// Draws one rank in [0, n), rotated by the current popularity offset:
  /// the returned value is (zipf_rank + offset) % n, so the *identity* of
  /// the hot keys shifts while the popularity *shape* stays fixed.
  std::size_t sample(Rng& rng) const;

  /// Rotates which keys are popular (churn workloads move this at runtime
  /// to model shifting popularity; see workload::ChurnQuery). Each client
  /// owns its own Zipf copy, so a mid-run shift is shard-local and
  /// deterministic under PDES. Reduced modulo size().
  void set_offset(std::size_t offset) { offset_ = offset % cdf_.size(); }

  [[nodiscard]] std::size_t offset() const { return offset_; }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::size_t offset_ = 0;
};

}  // namespace adcp::sim
