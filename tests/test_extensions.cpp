// Tests for the future-work extensions implemented beyond the paper's
// evaluated system: the Markov-chain weather model (Sec. III-C future
// work) and greedy sensor-placement optimization (Sec. IV-A future work).
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/aquascale.hpp"

namespace aqua {
namespace {

TEST(MarkovWeather, SnapsAreTemporallyClustered) {
  const fusion::TemperatureModel seasonal;
  const fusion::MarkovWeatherModel model(seasonal);
  const auto series = model.sample_series_f(2000);
  // Count cold days and cold->cold transitions within winter-ish spells.
  std::size_t cold = 0, cold_after_cold = 0, cold_after_warm = 0;
  for (std::size_t d = 1; d < series.size(); ++d) {
    const bool was_cold = series[d - 1] < fusion::kFreezeThresholdF;
    const bool is_cold = series[d] < fusion::kFreezeThresholdF;
    cold += is_cold;
    if (is_cold && was_cold) ++cold_after_cold;
    if (is_cold && !was_cold) ++cold_after_warm;
  }
  ASSERT_GT(cold, 20u);
  // Persistence: a cold day is more likely after a cold day than a warm
  // one (the whole point of the Markov extension).
  EXPECT_GT(cold_after_cold, cold_after_warm / 2);
}

TEST(MarkovWeather, StationaryProbabilityFormula) {
  fusion::MarkovWeatherConfig config;
  config.p_enter_snap = 0.1;
  config.p_exit_snap = 0.4;
  const fusion::MarkovWeatherModel model(fusion::TemperatureModel{}, config);
  EXPECT_NEAR(model.stationary_snap_probability(), 0.2, 1e-12);
  EXPECT_NEAR(model.mean_snap_length_days(), 2.5, 1e-12);
}

TEST(MarkovWeather, DeterministicSeries) {
  const fusion::MarkovWeatherModel model(fusion::TemperatureModel{});
  EXPECT_EQ(model.sample_series_f(100), model.sample_series_f(100));
}

TEST(MarkovWeather, Validation) {
  fusion::MarkovWeatherConfig config;
  config.p_enter_snap = 0.0;
  EXPECT_THROW(fusion::MarkovWeatherModel(fusion::TemperatureModel{}, config), InvalidArgument);
  config.p_enter_snap = 0.1;
  config.p_exit_snap = 1.0;
  EXPECT_THROW(fusion::MarkovWeatherModel(fusion::TemperatureModel{}, config), InvalidArgument);
}

class GreedyPlacementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new hydraulics::Network(networks::make_epa_net());
    core::ScenarioConfig config;
    config.min_events = 1;
    config.max_events = 2;
    config.seed = 99;
    core::ScenarioGenerator generator(*net_, config);
    scenarios_ = new std::vector<core::LeakScenario>(generator.generate(40));
    batch_ = new core::SnapshotBatch(*net_, *scenarios_, {1});
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete scenarios_;
    delete net_;
    batch_ = nullptr;
    scenarios_ = nullptr;
    net_ = nullptr;
  }
  static hydraulics::Network* net_;
  static std::vector<core::LeakScenario>* scenarios_;
  static core::SnapshotBatch* batch_;
};

hydraulics::Network* GreedyPlacementTest::net_ = nullptr;
std::vector<core::LeakScenario>* GreedyPlacementTest::scenarios_ = nullptr;
core::SnapshotBatch* GreedyPlacementTest::batch_ = nullptr;

TEST_F(GreedyPlacementTest, ReturnsRequestedCount) {
  const auto result = core::place_sensors_greedy(*batch_, 8);
  EXPECT_EQ(result.sensors.size(), 8u);
  EXPECT_EQ(result.coverage_curve.size(), 8u);
  EXPECT_EQ(result.total_scenarios, scenarios_->size());
}

TEST_F(GreedyPlacementTest, CoverageCurveIsMonotone) {
  const auto result = core::place_sensors_greedy(*batch_, 12);
  for (std::size_t i = 1; i < result.coverage_curve.size(); ++i) {
    EXPECT_GE(result.coverage_curve[i], result.coverage_curve[i - 1]);
  }
  EXPECT_LE(result.coverage_curve.back(), scenarios_->size());
}

TEST_F(GreedyPlacementTest, FirstPickCoversManyScenarios) {
  const auto result = core::place_sensors_greedy(*batch_, 1);
  // A single well-placed sensor should detect a sizeable share of 1-2 leak
  // scenarios (flow meters near sources see every draw change).
  EXPECT_GT(result.coverage_curve[0], scenarios_->size() / 4);
}

TEST_F(GreedyPlacementTest, Deterministic) {
  const auto a = core::place_sensors_greedy(*batch_, 6);
  const auto b = core::place_sensors_greedy(*batch_, 6);
  ASSERT_EQ(a.sensors.size(), b.sensors.size());
  for (std::size_t i = 0; i < a.sensors.size(); ++i) {
    EXPECT_EQ(a.sensors.sensors[i].name, b.sensors.sensors[i].name);
  }
}

TEST_F(GreedyPlacementTest, SensorsAreDistinct) {
  const auto result = core::place_sensors_greedy(*batch_, 10);
  std::set<std::string> names;
  for (const auto& s : result.sensors.sensors) names.insert(s.name);
  EXPECT_EQ(names.size(), 10u);
}

}  // namespace
}  // namespace aqua
