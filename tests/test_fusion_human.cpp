#include "fusion/human.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "networks/builtin.hpp"

namespace aqua::fusion {
namespace {

TEST(Eq3Confidence, GrowsWithTweetCount) {
  // p_t = 1 - p_e^k (Eq. 3).
  EXPECT_DOUBLE_EQ(tweet_confidence(0.3, 0), 0.0);
  EXPECT_NEAR(tweet_confidence(0.3, 1), 0.7, 1e-12);
  EXPECT_NEAR(tweet_confidence(0.3, 2), 1.0 - 0.09, 1e-12);
  EXPECT_GT(tweet_confidence(0.3, 5), tweet_confidence(0.3, 4));
}

TEST(Eq3Confidence, Validation) {
  EXPECT_THROW(tweet_confidence(0.0, 1), InvalidArgument);
  EXPECT_THROW(tweet_confidence(1.0, 1), InvalidArgument);
}

TEST(Eq4Printed, MatchesPaperFormula) {
  // (n*lambda)^k e^{-n*lambda} / (n+1)^k with n=2, lambda=1, k=3:
  // 8 e^-2 / 27.
  EXPECT_NEAR(printed_eq4(3, 2, 1.0), 8.0 * std::exp(-2.0) / 27.0, 1e-12);
}

TEST(Eq4Printed, IsNotNormalized) {
  // Documented deviation: the printed form does not sum to 1 over k.
  double total = 0.0;
  for (std::size_t k = 0; k < 200; ++k) total += printed_eq4(k, 4, 1.0);
  EXPECT_GT(std::abs(total - 1.0), 0.05);
}

class TweetGeneratorTest : public ::testing::Test {
 protected:
  hydraulics::Network net_ = networks::make_wssc_subnet();
};

TEST_F(TweetGeneratorTest, GenuineFractionTracksFalsePositiveRate) {
  TweetModelConfig config;
  config.false_positive_rate = 0.3;
  TweetGenerator generator(config);
  Rng rng(3);
  const std::vector<hydraulics::NodeId> leaks{net_.junction_ids()[50]};
  std::size_t genuine = 0, total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto tweets = generator.generate(net_, leaks, 8, rng);
    for (const auto& t : tweets) {
      ++total;
      genuine += t.genuine;
    }
  }
  ASSERT_GT(total, 500u);
  EXPECT_NEAR(static_cast<double>(genuine) / static_cast<double>(total), 0.7, 0.05);
}

TEST_F(TweetGeneratorTest, MoreSlotsMoreTweets) {
  TweetGenerator generator;
  Rng rng(4);
  const std::vector<hydraulics::NodeId> leaks{net_.junction_ids()[10]};
  std::size_t short_count = 0, long_count = 0;
  for (int trial = 0; trial < 50; ++trial) {
    short_count += generator.generate(net_, leaks, 1, rng).size();
    long_count += generator.generate(net_, leaks, 8, rng).size();
  }
  EXPECT_GT(long_count, 4 * short_count);
}

TEST_F(TweetGeneratorTest, ZeroSlotsNoTweets) {
  TweetGenerator generator;
  Rng rng(5);
  EXPECT_TRUE(generator.generate(net_, {net_.junction_ids()[0]}, 0, rng).empty());
}

TEST_F(TweetGeneratorTest, TweetSlotsWithinWindow) {
  TweetGenerator generator;
  Rng rng(6);
  const auto tweets = generator.generate(net_, {net_.junction_ids()[5]}, 4, rng);
  for (const auto& t : tweets) EXPECT_LT(t.slot, 4u);
}

TEST_F(TweetGeneratorTest, CliquesContainNearbyNodes) {
  TweetModelConfig config;
  config.clique_radius_m = 60.0;
  config.location_scatter_m = 10.0;  // tight scatter
  TweetGenerator generator(config);
  Rng rng(7);
  const hydraulics::NodeId leak = net_.junction_ids()[100];
  // Many slots so a genuine cluster almost surely forms.
  const auto tweets = generator.generate(net_, {leak}, 10, rng);
  const auto cliques = generator.build_cliques(net_, tweets);
  bool leak_in_some_clique = false;
  for (const auto& c : cliques) {
    for (const auto v : c.nodes) leak_in_some_clique = leak_in_some_clique || (v == leak);
  }
  EXPECT_TRUE(leak_in_some_clique);
}

TEST_F(TweetGeneratorTest, CliqueMembersWithinGamma) {
  TweetGenerator generator;
  Rng rng(8);
  const auto tweets = generator.generate(net_, {net_.junction_ids()[30]}, 6, rng);
  const auto cliques = generator.build_cliques(net_, tweets);
  for (const auto& c : cliques) {
    for (const auto v : c.nodes) {
      const auto& node = net_.node(v);
      EXPECT_LT(std::hypot(node.x - c.x, node.y - c.y),
                generator.config().clique_radius_m + 1e-9);
    }
  }
}

TEST_F(TweetGeneratorTest, LargerGammaLargerCliques) {
  Rng rng(9);
  TweetModelConfig tight_config;
  tight_config.clique_radius_m = 30.0;
  TweetModelConfig loose_config;
  loose_config.clique_radius_m = 200.0;
  TweetGenerator tight(tight_config), loose(loose_config);
  const auto tweets = tight.generate(net_, {net_.junction_ids()[60]}, 8, rng);
  const auto small = tight.build_cliques(net_, tweets);
  const auto big = loose.build_cliques(net_, tweets);
  std::size_t small_members = 0, big_members = 0;
  for (const auto& c : small) small_members += c.nodes.size();
  for (const auto& c : big) big_members += c.nodes.size();
  EXPECT_GE(big_members, small_members);
}

TEST_F(TweetGeneratorTest, CliqueConfidenceUsesEq3) {
  TweetGenerator generator;
  Rng rng(10);
  const auto tweets = generator.generate(net_, {net_.junction_ids()[80]}, 8, rng);
  const auto cliques = generator.build_cliques(net_, tweets);
  for (const auto& c : cliques) {
    EXPECT_NEAR(c.confidence,
                tweet_confidence(generator.config().false_positive_rate, c.tweet_count), 1e-12);
  }
}

TEST_F(TweetGeneratorTest, EmptyTweetsNoCliques) {
  TweetGenerator generator;
  EXPECT_TRUE(generator.build_cliques(net_, {}).empty());
}

TEST(TweetGeneratorConfig, Validation) {
  TweetModelConfig config;
  config.false_positive_rate = 0.0;
  EXPECT_THROW(TweetGenerator{config}, InvalidArgument);
  config.false_positive_rate = 0.3;
  config.clique_radius_m = 0.0;
  EXPECT_THROW(TweetGenerator{config}, InvalidArgument);
}

}  // namespace
}  // namespace aqua::fusion
