#include "fusion/weather.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace aqua::fusion {
namespace {

TEST(BayesAggregate, NeutralExpertIsIdentity) {
  EXPECT_NEAR(bayes_aggregate(0.7, 0.5), 0.7, 1e-9);
}

TEST(BayesAggregate, AgreementIncreasesCertainty) {
  // "If the probability of leak is 0.6 predicted by both two sources, then
  // p* will tend to be much higher than 0.6."
  const double fused = bayes_aggregate(0.6, 0.6);
  EXPECT_GT(fused, 0.6);
  EXPECT_NEAR(fused, 0.36 / (0.36 + 0.16), 1e-9);  // odds 1.5*1.5=2.25 -> 0.6923
}

TEST(BayesAggregate, DisagreementCancels) {
  EXPECT_NEAR(bayes_aggregate(0.8, 0.2), 0.5, 1e-9);
}

TEST(BayesAggregate, LowProbabilitiesReinforceDown) {
  EXPECT_LT(bayes_aggregate(0.3, 0.3), 0.3);
}

TEST(BayesAggregate, ManyExpertsCompound) {
  const double two = bayes_aggregate({0.6, 0.6});
  const double three = bayes_aggregate({0.6, 0.6, 0.6});
  EXPECT_GT(three, two);
}

TEST(BayesAggregate, ExtremeInputsStayFinite) {
  const double fused = bayes_aggregate({1.0, 0.9});
  EXPECT_TRUE(std::isfinite(fused));
  EXPECT_GT(fused, 0.9);
  EXPECT_LE(fused, 1.0);
  EXPECT_TRUE(std::isfinite(bayes_aggregate({0.0, 0.0})));
}

TEST(BayesAggregate, Validation) {
  EXPECT_THROW(bayes_aggregate(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(bayes_aggregate({1.2}), InvalidArgument);
}

TEST(FreezeModel, NothingFreezesAboveThreshold) {
  FreezeModel freeze;
  Rng rng(1);
  const auto frozen = freeze.sample_frozen(25.0, 100, rng);
  for (auto f : frozen) EXPECT_EQ(f, 0);
}

TEST(FreezeModel, FreezeRateMatchesProbability) {
  FreezeModel freeze;
  freeze.p_freeze = 0.8;
  Rng rng(2);
  std::size_t count = 0;
  const std::size_t n = 20000;
  const auto frozen = freeze.sample_frozen(10.0, n, rng);
  for (auto f : frozen) count += f;
  EXPECT_NEAR(static_cast<double>(count) / static_cast<double>(n), 0.8, 0.01);
}

TEST(TemperatureModel, WinterColdSummerWarm) {
  const TemperatureModel model;
  EXPECT_LT(model.seasonal_mean_f(15), model.seasonal_mean_f(196));  // mid-Jan vs mid-Jul
}

TEST(TemperatureModel, ColdSnapsBelowThresholdOccur) {
  const TemperatureModel model;
  Rng rng(97);
  std::size_t cold_days = 0;
  for (std::size_t day = 0; day < 365; ++day) {
    cold_days += (model.sample_day_f(day, rng) < kFreezeThresholdF);
  }
  EXPECT_GT(cold_days, 0u);
  EXPECT_LT(cold_days, 120u);  // but winter does not last all year
}

TEST(BreakHistory, DeterministicPerSeed) {
  const TemperatureModel temperature;
  const FreezeModel freeze;
  const auto a = simulate_break_history(temperature, freeze, 500, 200, 1.0, 7);
  const auto b = simulate_break_history(temperature, freeze, 500, 200, 1.0, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a[d].temperature_f, b[d].temperature_f);
    EXPECT_EQ(a[d].breaks, b[d].breaks);
  }
}

TEST(BreakHistory, ColdDaysBreakMore) {
  // The Fig. 3 relationship: average breaks/day falls as temperature
  // rises. Compare cold-day and warm-day means over five simulated years.
  const TemperatureModel temperature;
  const FreezeModel freeze;
  const auto history = simulate_break_history(temperature, freeze, 5000, 5 * 365, 1.0, 33);
  RunningStats cold, warm;
  for (const auto& day : history) {
    if (day.temperature_f < kFreezeThresholdF) {
      cold.add(static_cast<double>(day.breaks));
    } else if (day.temperature_f > 50.0) {
      warm.add(static_cast<double>(day.breaks));
    }
  }
  ASSERT_GT(cold.count(), 10u);
  ASSERT_GT(warm.count(), 100u);
  EXPECT_GT(cold.mean(), 2.0 * warm.mean());
}

TEST(BreakHistory, BackgroundRateWithoutCold) {
  // With a warm climate there should be only background breaks.
  const TemperatureModel tropics(75.0, 10.0, 3.0);
  const FreezeModel freeze;
  const auto history = simulate_break_history(tropics, freeze, 5000, 365, 0.5, 44);
  double total = 0.0;
  for (const auto& day : history) total += static_cast<double>(day.breaks);
  EXPECT_NEAR(total / 365.0, 0.5, 0.15);
}

}  // namespace
}  // namespace aqua::fusion
