#include "mat/table.hpp"

#include <array>
#include <cassert>

namespace adcp::mat {

bool ExactTable::insert(std::uint64_t key, Action action) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = std::move(action);
    return true;
  }
  if (entries_.size() >= capacity_) return false;
  entries_.emplace(key, std::move(action));
  return true;
}

LookupResult ExactTable::lookup(std::uint64_t key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return std::cref(it->second);
}

namespace {
constexpr std::uint32_t prefix_mask(std::uint8_t len) {
  return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}
}  // namespace

bool LpmTable::insert(std::uint32_t prefix, std::uint8_t len, Action action) {
  assert(len <= 32);
  auto& bucket = entries_[len];
  const std::uint32_t masked = prefix & prefix_mask(len);
  const auto it = bucket.find(masked);
  if (it != bucket.end()) {
    it->second = std::move(action);
    return true;
  }
  if (size_ >= capacity_) return false;
  bucket.emplace(masked, std::move(action));
  ++size_;
  return true;
}

LookupResult LpmTable::lookup(std::uint32_t key) const {
  for (int len = 32; len >= 0; --len) {
    const auto& bucket = entries_[static_cast<std::size_t>(len)];
    if (bucket.empty()) continue;
    const auto it = bucket.find(key & prefix_mask(static_cast<std::uint8_t>(len)));
    if (it != bucket.end()) return std::cref(it->second);
  }
  return std::nullopt;
}

}  // namespace adcp::mat
