#include "mat/mau.hpp"

namespace adcp::mat {

bool MatchActionUnit::process(packet::Phv& phv) {
  const std::uint64_t key = phv.get_or(key_field_, 0);
  LookupResult result;
  if (auto* exact = std::get_if<ExactTable>(&table_)) {
    result = exact->lookup(key);
  } else if (auto* lpm = std::get_if<LpmTable>(&table_)) {
    result = lpm->lookup(static_cast<std::uint32_t>(key));
  }
  if (result) {
    ++hits_;
    result->get()(phv);
    return true;
  }
  ++misses_;
  default_action_(phv);
  return false;
}

}  // namespace adcp::mat
