#include "telem/sketch.hpp"

#include <algorithm>

namespace adcp::telem {

HeavyHitterSketch::HeavyHitterSketch(SketchConfig config) : config_(config) {
  if (config_.ways == 0) config_.ways = 1;
  if (config_.slots == 0) config_.slots = 1;
  keys_.assign(static_cast<std::size_t>(config_.ways) * config_.slots, 0);
  counts_.assign(keys_.size(), 0);
}

HeavyHitterSketch::Probe HeavyHitterSketch::probe(std::uint64_t key) const {
  Probe best;
  best.min_count = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    const std::uint32_t s = slot_of(key, w);
    const std::size_t at = static_cast<std::size_t>(w) * config_.slots + s;
    if (counts_[at] != 0 && keys_[at] == key) {
      return Probe{true, w, s, counts_[at]};
    }
    if (counts_[at] < best.min_count) {
      best.min_count = counts_[at];
      best.way = w;
      best.slot = s;
    }
  }
  return best;
}

void HeavyHitterSketch::increment(std::uint64_t key) {
  const Probe p = probe(key);
  if (!p.owner) return;
  ++counts_[static_cast<std::size_t>(p.way) * config_.slots + p.slot];
  ++updates_;
}

void HeavyHitterSketch::claim(std::uint64_t key) {
  const Probe p = probe(key);
  if (p.owner) {  // raced with itself across a recirculation: just count it
    increment(key);
    return;
  }
  const std::size_t at = static_cast<std::size_t>(p.way) * config_.slots + p.slot;
  keys_[at] = key;
  counts_[at] = p.min_count + 1;
  ++updates_;
  ++claims_;
}

bool HeavyHitterSketch::update(std::uint64_t key, std::uint64_t seq) {
  const Probe p = probe(key);
  if (p.owner) {
    ++counts_[static_cast<std::size_t>(p.way) * config_.slots + p.slot];
    ++updates_;
    return false;
  }
  if (sim::mix64(key ^ (seq << 20) ^ config_.seed) % (p.min_count + 1) != 0) {
    ++updates_;
    return false;
  }
  const std::size_t at = static_cast<std::size_t>(p.way) * config_.slots + p.slot;
  keys_[at] = key;
  counts_[at] = p.min_count + 1;
  ++updates_;
  ++claims_;
  return true;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> HeavyHitterSketch::entries() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (counts_[i] != 0) out.emplace_back(keys_[i], counts_[i]);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

SketchScore score_heavy_hitters(
    const HeavyHitterSketch& sketch,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& truth, std::size_t k) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> exact = truth;
  std::sort(exact.begin(), exact.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (exact.size() > k) exact.resize(k);

  auto estimated = sketch.entries();
  if (estimated.size() > k) estimated.resize(k);

  SketchScore score;
  if (exact.empty() || estimated.empty()) return score;
  std::size_t hits = 0;
  for (const auto& [key, count] : estimated) {
    for (const auto& [tkey, tcount] : exact) {
      if (key == tkey) {
        ++hits;
        break;
      }
    }
  }
  score.recall = static_cast<double>(hits) / static_cast<double>(exact.size());
  score.precision = static_cast<double>(hits) / static_cast<double>(estimated.size());
  return score;
}

}  // namespace adcp::telem
