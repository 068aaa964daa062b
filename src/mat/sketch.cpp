#include "mat/sketch.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace adcp::mat {

namespace {
// splitmix64 finalizer: cheap, well-mixed per-row hashing.
constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed)
    : width_(width) {
  assert(width > 0 && depth > 0);
  for (std::size_t d = 0; d < depth; ++d) {
    seeds_.push_back(mix(seed + d));
    rows_.emplace_back(width, 0);
  }
}

std::size_t CountMinSketch::index(std::size_t row, std::uint64_t key) const {
  return static_cast<std::size_t>(mix(key ^ seeds_[row]) % width_);
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
