// Probabilistic per-key state: a Count-Min sketch.
//
// These are the standard stateful building blocks of in-network caching
// and telemetry (NetCache detects hot keys with exactly this machinery) —
// each row fits one register array + one hash, i.e. one stage ALU pass per
// row, so a d-row sketch costs d pipe accesses per packet.
#pragma once

#include <cstdint>
#include <vector>

namespace adcp::mat {

/// Count-Min sketch over 64-bit keys: estimates are never below the true
/// count and exceed it with probability that shrinks with width/depth.
class CountMinSketch {
 public:
  /// `width`: counters per row; `depth`: independent rows.
  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed = 0x5ee'dc0de);

  /// Adds `amount` to the key's counters.
  void update(std::uint64_t key, std::uint64_t amount = 1);

  /// The min-estimate of the key's total.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const;

  /// Register cells this sketch occupies (width x depth).
  [[nodiscard]] std::size_t cells() const { return rows_.size() * width_; }
  [[nodiscard]] std::size_t depth() const { return rows_.size(); }
  [[nodiscard]] std::size_t width() const { return width_; }

  void reset();

 private:
  [[nodiscard]] std::size_t index(std::size_t row, std::uint64_t key) const;

  std::size_t width_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::vector<std::uint64_t>> rows_;
};

}  // namespace adcp::mat
