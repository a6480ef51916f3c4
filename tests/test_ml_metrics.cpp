#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace aqua::ml {
namespace {

TEST(HammingScore, PerfectPrediction) {
  EXPECT_DOUBLE_EQ(hamming_score({1, 0, 1}, {1, 0, 1}), 1.0);
}

TEST(HammingScore, BothEmptyIsOne) {
  EXPECT_DOUBLE_EQ(hamming_score({0, 0, 0}, {0, 0, 0}), 1.0);
}

TEST(HammingScore, JaccardSemantics) {
  // pred {0,1}, true {1,2}: intersection {1}, union {0,1,2} -> 1/3.
  EXPECT_NEAR(hamming_score({1, 1, 0, 0}, {0, 1, 1, 0}), 1.0 / 3.0, 1e-12);
}

TEST(HammingScore, MissEverything) {
  EXPECT_DOUBLE_EQ(hamming_score({0, 0, 1}, {1, 1, 0}), 0.0);
}

TEST(HammingScore, FalsePositivesPenalized) {
  // One true leak found plus one spurious: 1/2.
  EXPECT_DOUBLE_EQ(hamming_score({1, 1, 0}, {1, 0, 0}), 0.5);
}

TEST(HammingScore, ArityMismatchThrows) {
  EXPECT_THROW(hamming_score({1, 0}, {1, 0, 0}), InvalidArgument);
}

TEST(MeanHamming, AveragesAcrossSamples) {
  const std::vector<Labels> pred{{1, 0}, {0, 1}};
  const std::vector<Labels> truth{{1, 0}, {1, 0}};
  EXPECT_DOUBLE_EQ(mean_hamming_score(pred, truth), 0.5);  // (1 + 0) / 2
}

TEST(MeanHamming, EmptyThrows) {
  EXPECT_THROW(mean_hamming_score({}, {}), InvalidArgument);
}

TEST(MicroPrf, CountsAggregateAcrossSamples) {
  const std::vector<Labels> pred{{1, 1, 0}, {0, 1, 0}};
  const std::vector<Labels> truth{{1, 0, 0}, {0, 1, 1}};
  const auto prf = micro_precision_recall(pred, truth);
  EXPECT_EQ(prf.true_positives, 2u);
  EXPECT_EQ(prf.false_positives, 1u);
  EXPECT_EQ(prf.false_negatives, 1u);
  EXPECT_NEAR(prf.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(prf.recall, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(prf.f1, 2.0 / 3.0, 1e-12);
}

TEST(MicroPrf, NoPositivesAnywhere) {
  const std::vector<Labels> pred{{0, 0}};
  const std::vector<Labels> truth{{0, 0}};
  const auto prf = micro_precision_recall(pred, truth);
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
}

}  // namespace
}  // namespace aqua::ml
