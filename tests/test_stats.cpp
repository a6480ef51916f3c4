#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace aqua {
namespace {

TEST(Stats, MeanBasics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  std::vector<double> v;
  EXPECT_DOUBLE_EQ(mean(v), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Stats, PercentileValidation) {
  std::vector<double> v;
  EXPECT_THROW(percentile(v, 50.0), InvalidArgument);
  std::vector<double> w{1.0};
  EXPECT_THROW(percentile(w, -1.0), InvalidArgument);
  EXPECT_THROW(percentile(w, 101.0), InvalidArgument);
}

TEST(RunningStats, MatchesBatchStatistics) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(3.5);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.5);
  EXPECT_DOUBLE_EQ(rs.min(), 3.5);
  EXPECT_DOUBLE_EQ(rs.max(), 3.5);
}

}  // namespace
}  // namespace aqua
