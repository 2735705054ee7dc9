#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);
  EXPECT_EQ(highest_supported_percentile(1000), 990u);
  EXPECT_EQ(highest_supported_percentile(999), 950u);
  EXPECT_EQ(highest_supported_percentile(9999), 990u);
  EXPECT_EQ(highest_supported_percentile(10000), 999u);
  EXPECT_EQ(highest_supported_percentile(200), 950u);
  EXPECT_EQ(highest_supported_percentile(20), 500u);
  EXPECT_EQ(highest_supported_percentile(19), 0u);
  EXPECT_EQ(highest_supported_percentile(0), 0u);
}

TEST(PercentileRule, NearestRankIsExactAtRoundSizes) {
  const std::vector<double> values = one_to(1000);
  EXPECT_EQ(percentile_sorted(values, 990), 990.0);
  EXPECT_EQ(percentile_sorted(values, 500), 500.0);
  EXPECT_EQ(percentile_sorted(values, 999), 999.0);
  EXPECT_EQ(percentile_sorted(one_to(1), 990), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PercentileRule, SummaryCountsFailuresAsMisses) {
  std::vector<double> ok = one_to(995);
  Summary few = summarize(ok, 5);
  EXPECT_TRUE(few.p99_supported);
  EXPECT_EQ(few.p99, 990.0);
  EXPECT_EQ(few.tail_per_mille, 990u);
  EXPECT_EQ(few.failed, 5u);

  Summary many = summarize(one_to(989), 11);
  EXPECT_TRUE(many.p99_supported);
  EXPECT_TRUE(std::isinf(many.p99));
  EXPECT_EQ(many.p50, 500.0);

  Summary small = summarize(one_to(500), 0);
  EXPECT_FALSE(small.p99_supported);
  EXPECT_EQ(small.tail_per_mille, 950u);
  EXPECT_EQ(small.tail, 475.0);
}

}  // namespace
}  // namespace perfbench
