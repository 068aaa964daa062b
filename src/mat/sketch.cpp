#include "mat/sketch.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/random.hpp"

namespace adcp::mat {

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed)
    : width_(width) {
  assert(width > 0 && depth > 0);
  for (std::size_t d = 0; d < depth; ++d) {
    seeds_.push_back(sim::mix64(seed + d));
    rows_.emplace_back(width, 0);
  }
}

std::size_t CountMinSketch::index(std::size_t row, std::uint64_t key) const {
  return static_cast<std::size_t>(sim::mix64(key ^ seeds_[row]) % width_);
}

void CountMinSketch::update(std::uint64_t key, std::uint64_t amount) {
  for (std::size_t d = 0; d < rows_.size(); ++d) {
    rows_[d][index(d, key)] += amount;
  }
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t d = 0; d < rows_.size(); ++d) {
    best = std::min(best, rows_[d][index(d, key)]);
  }
  return best;
}

void CountMinSketch::reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), 0);
}

}  // namespace adcp::mat
