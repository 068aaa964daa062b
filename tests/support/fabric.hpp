// Fabric test helpers shared by the topo, parallel, fast-path and
// control-churn tests: the hash the determinism pins compare snapshot and
// trace bytes through, and the host list the rack workloads drive.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "topo/network.hpp"
#include "workload/rack_coflow.hpp"

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

/// Every host of `net` with its address, in host-index order.
inline std::vector<workload::RackHost> rack_hosts(topo::Network& net) {
  std::vector<workload::RackHost> hosts;
  hosts.reserve(net.host_count());
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  return hosts;
}

}  // namespace adcp::test
