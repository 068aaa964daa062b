// Process-wide heap-allocation counter for zero-allocation guards.
//
// Linking alloc_counter.cpp into a test binary replaces the global
// allocation functions with counting wrappers over malloc/free, so a test
// can assert that a warm code path performs no heap allocation:
//
//   const std::uint64_t before = adcp::test::allocations();
//   run_warm_burst();
//   EXPECT_EQ(adcp::test::allocations() - before, 0u);
//
// The replacements live in their own translation unit so the compiler
// never sees a replaced operator new next to an inlined free().
#pragma once

#include <cstdint>

namespace adcp::test {

/// Calls to any variant of global operator new since process start.
std::uint64_t allocations();

}  // namespace adcp::test
