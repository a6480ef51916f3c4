// Tests for the future-work extension implemented beyond the paper's
// evaluated system: greedy sensor-placement optimization (Sec. IV-A
// future work).
#include <gtest/gtest.h>

#include <set>

#include "core/aquascale.hpp"

namespace aqua {
namespace {

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
