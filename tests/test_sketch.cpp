// Tests for the probabilistic state substrate (Count-Min sketch).
#include <gtest/gtest.h>

#include <map>

#include "mat/sketch.hpp"
#include "sim/random.hpp"

namespace adcp::mat {
namespace {

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch sketch(256, 4);
  std::map<std::uint64_t, std::uint64_t> truth;
  sim::Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t key = rng.uniform(0, 999);
    sketch.update(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.estimate(key), count) << "key " << key;
  }
}

TEST(CountMin, ExactWhenSparse) {
  CountMinSketch sketch(4096, 4);
  // Few keys, huge width: collisions are overwhelmingly unlikely.
  for (std::uint64_t k = 0; k < 8; ++k) sketch.update(k, k + 1);
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_EQ(sketch.estimate(k), k + 1);
  EXPECT_EQ(sketch.estimate(12345), 0u);
}

TEST(CountMin, ErrorBoundedUnderLoad) {
  // Standard CM bound: overestimate <= e/width * total inserts with
  // probability 1 - (1/e)^depth; check a generous version of it.
  constexpr std::size_t kWidth = 512;
  constexpr std::uint64_t kInserts = 50'000;
  CountMinSketch sketch(kWidth, 4);
  sim::Rng rng(13);
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    sketch.update(rng.uniform(0, 9999));
  }
  // A never-inserted key's estimate is pure collision noise.
  std::uint64_t worst = 0;
  for (std::uint64_t probe = 100'000; probe < 100'100; ++probe) {
    worst = std::max(worst, sketch.estimate(probe));
  }
  EXPECT_LT(worst, 3 * kInserts / kWidth + 50);
}

TEST(CountMin, HotKeysDominateEstimates) {
  CountMinSketch sketch(1024, 4);
  sim::Rng rng(17);
  sim::Zipf zipf(4096, 0.99);
  for (int i = 0; i < 100'000; ++i) sketch.update(zipf.sample(rng));
  // Rank-0 estimate dwarfs a mid-popularity key's.
  EXPECT_GT(sketch.estimate(0), 10 * sketch.estimate(500) + 1);
}

TEST(CountMin, ResetClears) {
  CountMinSketch sketch(64, 2);
  sketch.update(5, 100);
  sketch.reset();
  EXPECT_EQ(sketch.estimate(5), 0u);
}

TEST(CountMin, CellsReportResourceUse) {
  const CountMinSketch sketch(128, 3);
  EXPECT_EQ(sketch.cells(), 384u);
  EXPECT_EQ(sketch.width(), 128u);
  EXPECT_EQ(sketch.depth(), 3u);
}

}  // namespace
}  // namespace adcp::mat
