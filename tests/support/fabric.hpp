// Fabric test helper shared by the topo, parallel, fast-path and
// control-churn tests: the hash the determinism pins compare snapshot and
// trace bytes through.
#pragma once

#include <cstdint>
#include <string_view>

namespace adcp::test {

/// 64-bit FNV-1a of `s` (the same hash bench::fnv1a gives the benches).
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace adcp::test
