// Measurement primitives shared by all simulators and benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace adcp::sim {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value-wins double metric (queue depth, utilisation, a bench's
/// headline number). Unlike Counter it can move in both directions.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Running mean / min / max / count over double samples (Welford's online
/// algorithm for the variance).
class Summary {
 public:
  void record(double x);

  /// Folds another summary in (Chan et al.'s parallel Welford combine), as
  /// if every sample of `other` had been record()ed here. Used to merge
  /// per-shard summaries after a parallel run.
  void merge(const Summary& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double total() const { return sum_; }
  void reset() { *this = Summary{}; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-percentile histogram: keeps all samples (fine for simulation scale)
/// and answers arbitrary quantiles. Samples are sorted lazily.
class Histogram {
 public:
  void record(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  /// Pre-sizes the sample buffer so record() stays allocation-free for the
  /// next `n` samples (zero-alloc warm paths reserve before measuring).
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Appends every sample of `other`. Quantiles of the merged histogram are
  /// order-independent (computed from the sorted sample set), so merging
  /// per-shard histograms in shard order is deterministic.
  void merge(const Histogram& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }

  /// Read-only view of the raw samples (insertion order until a quantile
  /// call sorts the buffer in place).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// q in [0, 1]; e.g. 0.5 = median, 0.99 = p99. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  void reset() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace adcp::sim
