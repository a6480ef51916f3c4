#include "sensing/placement.hpp"
#include "sensing/sensors.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "networks/builtin.hpp"

namespace aqua::sensing {
namespace {

hydraulics::SimulationResults baseline_day(const hydraulics::Network& net) {
  hydraulics::SimulationOptions options;
  options.duration_s = 6 * 3600.0;  // short baseline is enough for signatures
  hydraulics::Simulation sim(net, options);
  return sim.run();
}

TEST(Sensors, FullObservationCoversEverything) {
  const auto net = networks::make_epa_net();
  const auto sensors = full_observation(net);
  EXPECT_EQ(sensors.size(), net.num_nodes() + net.num_links());
  EXPECT_EQ(sensors.count(SensorKind::kPressure), net.num_nodes());
  EXPECT_EQ(sensors.count(SensorKind::kFlow), net.num_links());
}

TEST(Sensors, PercentageMapping) {
  const auto net = networks::make_epa_net();  // 96 nodes + 121 links = 217
  EXPECT_EQ(sensors_for_percentage(net, 100.0), 217u);
  EXPECT_EQ(sensors_for_percentage(net, 10.0), 22u);
  EXPECT_EQ(sensors_for_percentage(net, 0.1), 1u);  // clamped to >= 1
  EXPECT_THROW(sensors_for_percentage(net, 0.0), InvalidArgument);
  EXPECT_THROW(sensors_for_percentage(net, 101.0), InvalidArgument);
}

TEST(Placement, KMedoidsReturnsRequestedCount) {
  const auto net = networks::make_epa_net();
  const auto baseline = baseline_day(net);
  const auto sensors = place_sensors_kmedoids(net, baseline, 20);
  EXPECT_EQ(sensors.size(), 20u);
  // No duplicate (kind, index) pairs.
  std::set<std::pair<int, std::size_t>> unique;
  for (const auto& s : sensors.sensors) {
    unique.insert({static_cast<int>(s.kind), s.index});
  }
  EXPECT_EQ(unique.size(), 20u);
}

TEST(Placement, KMedoidsMixesSensorKinds) {
  const auto net = networks::make_epa_net();
  const auto baseline = baseline_day(net);
  const auto sensors = place_sensors_kmedoids(net, baseline, 40);
  EXPECT_GT(sensors.count(SensorKind::kPressure), 0u);
  EXPECT_GT(sensors.count(SensorKind::kFlow), 0u);
}

TEST(Placement, KMedoidsIsDeterministic) {
  const auto net = networks::make_epa_net();
  const auto baseline = baseline_day(net);
  const auto a = place_sensors_kmedoids(net, baseline, 15, 7);
  const auto b = place_sensors_kmedoids(net, baseline, 15, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sensors[i].name, b.sensors[i].name);
  }
}

TEST(Placement, RandomPlacementDistinct) {
  const auto net = networks::make_epa_net();
  const auto sensors = place_sensors_random(net, 30, 3);
  EXPECT_EQ(sensors.size(), 30u);
  std::set<std::string> names;
  for (const auto& s : sensors.sensors) names.insert(s.name);
  EXPECT_EQ(names.size(), 30u);
}

TEST(NoiseModel, SigmaFollowsTheDocumentedRule) {
  NoiseModel noise;
  noise.pressure_sigma_m = 0.05;
  noise.flow_sigma_frac = 0.02;
  noise.flow_sigma_floor_m3s = 1e-4;
  // Pressure: additive, independent of the reading.
  EXPECT_EQ(noise.sigma(SensorKind::kPressure, 0.0), 0.05);
  EXPECT_EQ(noise.sigma(SensorKind::kPressure, -40.0), 0.05);
  // Flow: relative to |reading|, never below the floor.
  EXPECT_EQ(noise.sigma(SensorKind::kFlow, 0.5), 0.02 * 0.5);
  EXPECT_EQ(noise.sigma(SensorKind::kFlow, -0.5), 0.02 * 0.5);
  EXPECT_EQ(noise.sigma(SensorKind::kFlow, 0.001), 1e-4);
  EXPECT_EQ(noise.sigma(SensorKind::kFlow, 0.0), 1e-4);
}

}  // namespace
}  // namespace aqua::sensing
