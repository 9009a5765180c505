// Tests of the benchmark's own arithmetic (src/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

Span At(std::string_view name, std::int64_t start, std::int64_t end, std::int32_t parent = -1,
        std::int64_t op = 1, std::int64_t units = 1) {
  return Span{name, start, end, parent, op, units};
}

TEST(PercentileTest, SmallSamples) {
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  // Rank 0.9 * 3 = 2.7 interpolates between 3 and 4.
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.9), 3.7);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 1.5), 2.0);
}

TEST(ChunkMinimaTest, MedianOfEachChunksFastestSample) {
  EXPECT_TRUE(std::isnan(MedianOfChunkMinima({}, 4)));
  // Chunks {5, 3}, {9, 4}, {8, 7}: minima 3, 4, 7.
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({5, 3, 9, 4, 8, 7}, 3), 4.0);
  // Seven values in three chunks of 2, 2 and 3: {10, 1}, {10, 2}, {10, 10, 3}.
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({10, 1, 10, 2, 10, 10, 3}, 3), 2.0);
  // More chunks than values: one chunk per value, the plain median.
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({4, 1, 3}, 10), 3.0);
  // One chunk is the minimum; a slow stretch inside one chunk of several
  // does not move the result.
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({6, 2, 9}, 1), 2.0);
  EXPECT_DOUBLE_EQ(MedianOfChunkMinima({2, 3, 2, 3, 90, 95, 2, 3, 2, 3}, 5), 2.0);
}

TEST(SelfTimeTest, NestedChildrenAreSubtractedOnce) {
  // root [0,100) > child [10,60) > grandchild [20,30).
  const std::vector<Span> spans = {At("root", 0, 100), At("child", 10, 60, 0),
                                   At("grandchild", 20, 30, 1)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, OverlappingChildrenCountTheirUnion) {
  // Children [10,40) and [30,70) overlap on [30,40): union covers 60.
  // A third child [80,120) sticks out of the parent: only [80,100) counts.
  const std::vector<Span> spans = {At("root", 0, 100), At("a", 10, 40, 0), At("b", 30, 70, 0),
                                   At("c", 80, 120, 0)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 20);
  for (const auto value : self) EXPECT_GE(value, 0);
}

TEST(SelfTimeTest, ChildOutsideParentSubtractsNothing) {
  const std::vector<Span> spans = {At("root", 0, 10), At("late", 20, 30, 0)};
  EXPECT_EQ(SelfTimes(spans)[0], 10);
}

TEST(SubtractionSplitTest, SyntheticServeTrace) {
  // Op 1: 4096-packet call of 400 us; twin serve 300 us, telemetry 60 us.
  // Op 2: same call of 410 us; twin serve 320 us, telemetry 70 us.
  // Op 3 lacks its telemetry span and is skipped.
  const std::vector<Span> spans = {
      At("core.serve", 0, 400'000, -1, 1, 4096),     At("switchsim.serve", 0, 300'000, -1, 1, 4096),
      At("dataplane.telemetry", 0, 60'000, -1, 1, 4096),
      At("core.serve", 0, 410'000, -1, 2, 4096),     At("switchsim.serve", 0, 320'000, -1, 2, 4096),
      At("dataplane.telemetry", 0, 70'000, -1, 2, 4096),
      At("core.serve", 0, 400'000, -1, 3, 4096),     At("switchsim.serve", 0, 300'000, -1, 3, 4096),
  };
  const auto split =
      SubtractionSplit(spans, "core.serve", {"switchsim.serve", "dataplane.telemetry"});
  ASSERT_EQ(split.size(), 2u);
  EXPECT_DOUBLE_EQ(split[0], 40'000.0 / 4096.0);
  EXPECT_DOUBLE_EQ(split[1], 20'000.0 / 4096.0);
  EXPECT_DOUBLE_EQ(Median(PerUnitNs(spans, "switchsim.serve")), 300'000.0 / 4096.0);
}

TEST(SubtractionSplitTest, RepeatedPartsSumAndSlowTwinGoesNegative) {
  // Two warm calls inside one admit op sum; a twin slower than the
  // measured call yields a negative split rather than a clamped one.
  const std::vector<Span> spans = {
      At("core.admit", 0, 100),         At("compiler.warm", 0, 30),
      At("compiler.warm", 0, 30),       At("dataplane.alloc", 0, 50),
      At("core.admit", 0, 100, -1, 2), At("compiler.warm", 0, 70, -1, 2),
      At("dataplane.alloc", 0, 50, -1, 2)};
  const auto split = SubtractionSplit(spans, "core.admit", {"dataplane.alloc", "compiler.warm"});
  ASSERT_EQ(split.size(), 2u);
  EXPECT_DOUBLE_EQ(split[0], -10.0);
  EXPECT_DOUBLE_EQ(split[1], -20.0);
}

TEST(FailureShareTest, CountsAgainstAttempted) {
  EXPECT_DOUBLE_EQ(FailureSharePct(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(FailureSharePct(200, 0), 0.0);
  EXPECT_DOUBLE_EQ(FailureSharePct(200, 3), 1.5);
  EXPECT_DOUBLE_EQ(FailureSharePct(4, 4), 100.0);
}

}  // namespace
}  // namespace perfbench
