#include "workflow/behavior.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace chiron {
namespace {

using Kind = Segment::Kind;

TEST(BehaviorTest, EmptyBehaviorHasZeroLatency) {
  FunctionBehavior b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.solo_latency(), 0.0);
  EXPECT_TRUE(b.block_periods().empty());
}

TEST(BehaviorTest, MergesAdjacentSameKindSegments) {
  FunctionBehavior b({{Kind::kCpu, 1.0}, {Kind::kCpu, 2.0}, {Kind::kBlock, 3.0}});
  ASSERT_EQ(b.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(b.segments()[0].duration, 3.0);
  EXPECT_DOUBLE_EQ(b.segments()[1].duration, 3.0);
}

TEST(BehaviorTest, DropsZeroLengthSegments) {
  FunctionBehavior b({{Kind::kCpu, 1.0}, {Kind::kBlock, 0.0}, {Kind::kCpu, 1.0}});
  ASSERT_EQ(b.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(b.segments()[0].duration, 2.0);
}

TEST(BehaviorTest, RejectsNegativeDurations) {
  EXPECT_THROW(FunctionBehavior({{Kind::kCpu, -1.0}}), std::invalid_argument);
}

TEST(BehaviorTest, TotalsSplitByKind) {
  FunctionBehavior b({{Kind::kCpu, 2.0}, {Kind::kBlock, 5.0}, {Kind::kCpu, 3.0}});
  EXPECT_DOUBLE_EQ(b.total_cpu(), 5.0);
  EXPECT_DOUBLE_EQ(b.total_block(), 5.0);
  EXPECT_DOUBLE_EQ(b.solo_latency(), 10.0);
}

TEST(BehaviorTest, BlockPeriodsHaveCorrectOffsets) {
  FunctionBehavior b({{Kind::kCpu, 2.0}, {Kind::kBlock, 5.0}, {Kind::kCpu, 1.0},
                      {Kind::kBlock, 2.0}});
  const auto periods = b.block_periods();
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_DOUBLE_EQ(periods[0].start, 2.0);
  EXPECT_DOUBLE_EQ(periods[0].end, 7.0);
  EXPECT_DOUBLE_EQ(periods[1].start, 8.0);
  EXPECT_DOUBLE_EQ(periods[1].end, 10.0);
}

TEST(BehaviorTest, FromBlockPeriodsRoundTrips) {
  FunctionBehavior original({{Kind::kCpu, 2.0}, {Kind::kBlock, 5.0},
                             {Kind::kCpu, 1.0}, {Kind::kBlock, 2.0},
                             {Kind::kCpu, 0.5}});
  const auto rebuilt = FunctionBehavior::from_block_periods(
      original.solo_latency(), original.block_periods());
  EXPECT_EQ(rebuilt, original);
}

TEST(BehaviorTest, FromBlockPeriodsLeadingBlock) {
  const auto b = FunctionBehavior::from_block_periods(10.0, {{0.0, 4.0}});
  ASSERT_EQ(b.segments().size(), 2u);
  EXPECT_EQ(b.segments()[0].kind, Kind::kBlock);
  EXPECT_DOUBLE_EQ(b.total_block(), 4.0);
  EXPECT_DOUBLE_EQ(b.total_cpu(), 6.0);
}

TEST(BehaviorTest, FromBlockPeriodsRejectsOverlap) {
  EXPECT_THROW(
      FunctionBehavior::from_block_periods(10.0, {{0.0, 5.0}, {4.0, 6.0}}),
      std::invalid_argument);
}

TEST(BehaviorTest, FromBlockPeriodsRejectsOutOfRange) {
  EXPECT_THROW(FunctionBehavior::from_block_periods(10.0, {{8.0, 12.0}}),
               std::invalid_argument);
}

TEST(BehaviorTest, ScaledMultipliesEverything) {
  FunctionBehavior b({{Kind::kCpu, 2.0}, {Kind::kBlock, 4.0}});
  const auto scaled = b.scaled(1.5);
  EXPECT_DOUBLE_EQ(scaled.total_cpu(), 3.0);
  EXPECT_DOUBLE_EQ(scaled.total_block(), 6.0);
  EXPECT_THROW(b.scaled(0.0), std::invalid_argument);
}

TEST(BehaviorTest, BlockScalingOnlyTouchesBlocks) {
  FunctionBehavior b({{Kind::kCpu, 2.0}, {Kind::kBlock, 4.0}});
  const auto scaled = b.with_blocks_scaled(0.5);
  EXPECT_DOUBLE_EQ(scaled.total_cpu(), 2.0);
  EXPECT_DOUBLE_EQ(scaled.total_block(), 2.0);
}

TEST(BehaviorTest, CpuOverheadOnlyTouchesCpu) {
  FunctionBehavior b({{Kind::kCpu, 2.0}, {Kind::kBlock, 4.0}});
  const auto slower = b.with_cpu_overhead(0.5);
  EXPECT_DOUBLE_EQ(slower.total_cpu(), 3.0);
  EXPECT_DOUBLE_EQ(slower.total_block(), 4.0);
  EXPECT_THROW(b.with_cpu_overhead(-0.1), std::invalid_argument);
}

TEST(BehaviorTest, AssignCpuScaledMatchesChainedOverheads) {
  const FunctionBehavior base = disk_io_bound(7.3, 4.1, 3);
  const double o1 = 0.137, o2 = 0.0421;
  const FunctionBehavior want =
      base.with_cpu_overhead(o1).with_cpu_overhead(o2);
  FunctionBehavior got = cpu_bound(99.0);  // previous contents are replaced
  got.assign_cpu_scaled(base, 1.0 + o1, 1.0 + o2);
  EXPECT_EQ(got, want);  // exact: the same two roundings per CPU segment
  got.assign_cpu_scaled(base, 1.0, 1.0);
  EXPECT_EQ(got, base);
  EXPECT_THROW(got.assign_cpu_scaled(base, 0.9, 1.0), std::invalid_argument);
  EXPECT_THROW(got.assign_cpu_scaled(base, 1.0, 0.5), std::invalid_argument);
}

TEST(BehaviorBuildersTest, CpuBound) {
  const auto b = cpu_bound(10.0);
  EXPECT_DOUBLE_EQ(b.total_cpu(), 10.0);
  EXPECT_DOUBLE_EQ(b.total_block(), 0.0);
}

TEST(BehaviorBuildersTest, NetworkIoBound) {
  const auto b = network_io_bound(2.0, 20.0);
  EXPECT_DOUBLE_EQ(b.total_cpu(), 2.0);
  EXPECT_DOUBLE_EQ(b.total_block(), 20.0);
  EXPECT_EQ(b.segments().size(), 3u);
}

TEST(BehaviorBuildersTest, DiskIoBound) {
  const auto b = disk_io_bound(6.0, 18.0, 3);
  EXPECT_NEAR(b.total_cpu(), 6.0, 1e-9);
  EXPECT_NEAR(b.total_block(), 18.0, 1e-9);
  EXPECT_EQ(b.block_periods().size(), 3u);
  EXPECT_THROW(disk_io_bound(1.0, 1.0, 0), std::invalid_argument);
}

TEST(BehaviorBuildersTest, Alternating) {
  const auto b = alternating({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(b.total_cpu(), 4.0);
  EXPECT_DOUBLE_EQ(b.total_block(), 2.0);
}

class BehaviorScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(BehaviorScaleProperty, LatencyScalesLinearly) {
  const double factor = GetParam();
  const auto b = disk_io_bound(6.0, 18.0, 3);
  EXPECT_NEAR(b.scaled(factor).solo_latency(), b.solo_latency() * factor,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Factors, BehaviorScaleProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 7.5, 100.0));

}  // namespace
}  // namespace chiron
