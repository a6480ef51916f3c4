#include "core/snapshots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "hydraulics/replay.hpp"
#include "networks/builtin.hpp"
#include "sensing/placement.hpp"

namespace aqua::core {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : net_(networks::make_epa_net()) {
    ScenarioConfig config;
    config.min_events = 1;
    config.max_events = 2;
    config.seed = 5;
    ScenarioGenerator generator(net_, config);
    scenarios_ = generator.generate(8);
  }

  hydraulics::Network net_;
  std::vector<LeakScenario> scenarios_;
};

TEST_F(SnapshotTest, BatchCoversAllScenarios) {
  const SnapshotBatch batch(net_, scenarios_, {1, 4});
  EXPECT_EQ(batch.size(), scenarios_.size());
  EXPECT_EQ(batch.elapsed_slots(), (std::vector<std::size_t>{1, 4}));
}

TEST_F(SnapshotTest, SnapshotDimensionsMatchNetwork) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto& snap = batch.snapshots(0);
  EXPECT_EQ(snap.before_pressure.size(), net_.num_nodes());
  EXPECT_EQ(snap.before_flow.size(), net_.num_links());
  ASSERT_EQ(snap.after_pressure.size(), 1u);
  EXPECT_EQ(snap.after_pressure[0].size(), net_.num_nodes());
}

TEST_F(SnapshotTest, LeakNodePressureDropsAfterEvent) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  const LabelSpace labels(net_);
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const auto& snap = batch.snapshots(i);
    for (const auto& event : scenarios_[i].events) {
      EXPECT_LT(snap.after_pressure[0][event.node], snap.before_pressure[event.node])
          << "scenario " << i;
    }
  }
}

TEST_F(SnapshotTest, DayFractionReflectsLeakSlot) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const double expected =
        std::fmod(static_cast<double>(scenarios_[i].leak_slot) * 900.0, 86400.0) / 86400.0;
    EXPECT_NEAR(batch.snapshots(i).day_fraction, expected, 1e-12);
  }
}

TEST_F(SnapshotTest, FeatureVectorLayout) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto sensors = sensing::full_observation(net_);
  sensing::NoiseModel noise;
  Rng rng(9);
  const auto with_time = batch.features(0, sensors, 0, noise, rng, true);
  EXPECT_EQ(with_time.size(), sensors.size() + 1);
  const auto without_time = batch.features(0, sensors, 0, noise, rng, false);
  EXPECT_EQ(without_time.size(), sensors.size());
}

TEST_F(SnapshotTest, CleanFeaturesMatchSnapshots) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  sensing::SensorSet one;
  const auto leak_node = scenarios_[0].events[0].node;
  one.sensors.push_back({sensing::SensorKind::kPressure, leak_node, "p"});
  sensing::NoiseModel no_noise;
  no_noise.pressure_sigma_m = 0.0;
  no_noise.flow_sigma_frac = 0.0;
  no_noise.flow_sigma_floor_m3s = 0.0;
  Rng rng(10);
  const auto features = batch.features(0, one, 0, no_noise, rng, false);
  const auto& snap = batch.snapshots(0);
  EXPECT_NEAR(features[0], snap.after_pressure[0][leak_node] - snap.before_pressure[leak_node],
              1e-12);
  EXPECT_LT(features[0], 0.0);
}

/// Standard deviation of (noisy Δ − clean Δ) over `draws` featurizations
/// of one sensor of scenario 0; also returns the mean through `mean`.
double delta_noise_spread(const SnapshotBatch& batch, const sensing::Sensor& sensor,
                          const sensing::NoiseModel& noise, int draws, double& mean) {
  const sensing::SensorSet one{{sensor}};
  const auto& snap = batch.snapshots(0);
  const bool pressure = sensor.kind == sensing::SensorKind::kPressure;
  const double clean = pressure ? snap.after_pressure[0][sensor.index] -
                                      snap.before_pressure[sensor.index]
                                : snap.after_flow[0][sensor.index] - snap.before_flow[sensor.index];
  Rng rng(5);
  std::vector<double> out(1);
  double sum = 0.0, ss = 0.0;
  for (int i = 0; i < draws; ++i) {
    batch.features_into(0, one, 0, noise, rng, false, {}, out);
    const double error = out[0] - clean;
    sum += error;
    ss += error * error;
  }
  mean = sum / draws;
  return std::sqrt(ss / draws);
}

TEST_F(SnapshotTest, PressureDeltaNoiseIsSigmaTimesSqrt2) {
  // Each of the two readings draws N(0, σ²), so the Δ carries σ√2.
  const SnapshotBatch batch(net_, scenarios_, {1});
  sensing::NoiseModel noise;
  noise.pressure_sigma_m = 0.05;
  const sensing::Sensor sensor{sensing::SensorKind::kPressure, net_.junction_ids()[0], "p"};
  double mean = 0.0;
  const double spread = delta_noise_spread(batch, sensor, noise, 20000, mean);
  EXPECT_NEAR(mean, 0.0, 0.003);
  EXPECT_NEAR(spread, 0.05 * std::sqrt(2.0), 0.003);
}

TEST_F(SnapshotTest, FlowDeltaNoiseCombinesBothReadingsRelativeSigmas) {
  // Flow noise is relative to each reading: the Δ carries
  // √(σ_before² + σ_after²) with σ = flow_sigma_frac · |reading|.
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto& snap = batch.snapshots(0);
  std::size_t link = 0;
  for (std::size_t l = 0; l < net_.num_links(); ++l) {
    if (std::abs(snap.before_flow[l]) > std::abs(snap.before_flow[link])) link = l;
  }
  sensing::NoiseModel noise;
  noise.flow_sigma_frac = 0.02;
  const double sigma_before = noise.flow_sigma_frac * std::abs(snap.before_flow[link]);
  const double sigma_after = noise.flow_sigma_frac * std::abs(snap.after_flow[0][link]);
  // Both readings sit above the floor, so the relative rule is what is measured.
  ASSERT_GT(sigma_before, noise.flow_sigma_floor_m3s);
  ASSERT_GT(sigma_after, noise.flow_sigma_floor_m3s);
  const double expected = std::hypot(sigma_before, sigma_after);
  const sensing::Sensor sensor{sensing::SensorKind::kFlow, link, "q"};
  double mean = 0.0;
  const double spread = delta_noise_spread(batch, sensor, noise, 20000, mean);
  EXPECT_NEAR(mean, 0.0, 0.03 * expected);
  EXPECT_NEAR(spread, expected, 0.03 * expected);
}

TEST_F(SnapshotTest, SensorNamingAnotherElementThrowsNamingBoth) {
  // EPA-NET's full observation fits inside WSSC-SUBNET's index ranges, but
  // its sensors name EPA-NET elements: the first, p:J1_0, indexes WSSC
  // node J0_13. build_dataset checks every name once per call; the
  // per-row featurizer does not.
  const auto wssc = networks::make_wssc_subnet();
  ScenarioConfig config;
  config.min_events = 1;
  config.max_events = 1;
  config.seed = 6;
  const auto scenarios = ScenarioGenerator(wssc, config).generate(2);
  const SnapshotBatch batch(wssc, scenarios, {1});
  const auto foreign = sensing::full_observation(net_);
  ASSERT_LT(net_.num_nodes(), wssc.num_nodes());
  ASSERT_LT(net_.num_links(), wssc.num_links());
  // The two networks share their first node names; the first pressure
  // sensor whose name differs is the one reported.
  std::size_t first = 0;
  while (foreign.sensors[first].name == "p:" + wssc.node(first).name) ++first;
  ASSERT_LT(first, net_.num_nodes());
  try {
    (void)batch.build_dataset(scenarios, foreign, 0, {}, 42);
    ADD_FAILURE() << "featurized EPA-NET sensors on WSSC-SUBNET";
  } catch (const InvalidArgument& error) {
    const std::string expected = "sensor '" + foreign.sensors[first].name + "' indexes node " +
                                 std::to_string(first) + ", which this network names 'p:" +
                                 wssc.node(first).name + "'";
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos) << error.what();
  }
  Rng rng(13);
  EXPECT_NO_THROW((void)batch.features(0, foreign, 0, {}, rng));
  EXPECT_NO_THROW((void)batch.build_dataset(scenarios, sensing::full_observation(wssc), 0, {}, 42));
}

TEST_F(SnapshotTest, SensorOutsideTheNetworkThrowsNamingIt) {
  // A profile placed on another network must not index past the
  // snapshots: WSSC-SUBNET's full observation has more nodes and links
  // than EPA-NET, directly and through build_dataset.
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto foreign = sensing::full_observation(networks::make_wssc_subnet());
  Rng rng(12);
  EXPECT_THROW(batch.features(0, foreign, 0, {}, rng), InvalidArgument);
  EXPECT_THROW(batch.build_dataset(scenarios_, foreign, 0, {}, 42), InvalidArgument);

  auto expect_rejected = [&](const sensing::Sensor& sensor) {
    const sensing::SensorSet one{{sensor}};
    try {
      (void)batch.features(0, one, 0, {}, rng);
      ADD_FAILURE() << "accepted " << sensor.name;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find(sensor.name), std::string::npos) << error.what();
    }
  };
  expect_rejected({sensing::SensorKind::kPressure, net_.num_nodes(), "p:past-last-node"});
  expect_rejected({sensing::SensorKind::kFlow, net_.num_links(), "q:past-last-link"});

  // The last node and the last link are in range.
  const sensing::SensorSet last{{{sensing::SensorKind::kPressure, net_.num_nodes() - 1, "p"},
                                 {sensing::SensorKind::kFlow, net_.num_links() - 1, "q"}}};
  EXPECT_NO_THROW((void)batch.features(0, last, 0, {}, rng));
}

TEST_F(SnapshotTest, DatasetShapeAndLabels) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto sensors = sensing::full_observation(net_);
  const auto data = batch.build_dataset(scenarios_, sensors, 0, {}, 42);
  EXPECT_EQ(data.num_samples(), scenarios_.size());
  EXPECT_EQ(data.num_features(), sensors.size() + 1);
  EXPECT_EQ(data.num_labels(), LabelSpace(net_).num_labels());
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    EXPECT_EQ(data.labels[i], scenarios_[i].truth);
  }
  EXPECT_EQ(data.feature_names.size(), data.num_features());
}

TEST_F(SnapshotTest, DatasetDeterministicGivenSeed) {
  const SnapshotBatch batch(net_, scenarios_, {1});
  const auto sensors = sensing::full_observation(net_);
  const auto a = batch.build_dataset(scenarios_, sensors, 0, {}, 42);
  const auto b = batch.build_dataset(scenarios_, sensors, 0, {}, 42);
  EXPECT_EQ(a.features.data(), b.features.data());
  const auto c = batch.build_dataset(scenarios_, sensors, 0, {}, 43);
  EXPECT_NE(a.features.data(), c.features.data());  // different noise draw
}

TEST_F(SnapshotTest, LongerElapsedStrongerTankDrawdown) {
  // With more elapsed slots the leak has drained more and diurnal demand
  // has moved further; the after-snapshots at n=1 and n=4 must differ.
  const SnapshotBatch batch(net_, scenarios_, {1, 4});
  const auto& snap = batch.snapshots(0);
  double diff = 0.0;
  for (std::size_t v = 0; v < net_.num_nodes(); ++v) {
    diff += std::abs(snap.after_pressure[0][v] - snap.after_pressure[1][v]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST_F(SnapshotTest, MatchingNonDefaultSlotLengthWorks) {
  ScenarioConfig config;
  config.min_leak_slot = 2;
  config.max_leak_slot = 6;
  config.hydraulic_step_s = 300.0;
  config.seed = 3;
  ScenarioGenerator generator(net_, config);
  const auto scenarios = generator.generate(2);
  hydraulics::SimulationOptions options;
  options.hydraulic_step_s = 300.0;
  const SnapshotBatch batch(net_, scenarios, {1}, options);
  EXPECT_EQ(batch.size(), 2u);
}

TEST_F(SnapshotTest, MismatchedSlotLengthThrows) {
  // Scenarios laid out on a 300 s slot grid must not be simulated with the
  // default 900 s hydraulic step: every snapshot index would be wrong.
  ScenarioConfig config;
  config.min_leak_slot = 2;
  config.max_leak_slot = 6;
  config.hydraulic_step_s = 300.0;
  config.seed = 3;
  ScenarioGenerator generator(net_, config);
  const auto scenarios = generator.generate(2);
  EXPECT_THROW(SnapshotBatch(net_, scenarios, {1}), InvalidArgument);
}

TEST_F(SnapshotTest, LeakSlotWithoutPredecessorThrows) {
  // A slot-0 leak has no "before" snapshot; this must be a clean error,
  // not a size_t wrap-around in the index arithmetic.
  LeakScenario scenario;
  scenario.leak_slot = 0;
  const std::vector<LeakScenario> scenarios{scenario};
  EXPECT_THROW(SnapshotBatch(net_, scenarios, {1}), InvalidArgument);
}

TEST_F(SnapshotTest, HostileDynamicsThrowOnEveryPath) {
  // Each case spoils one field of a scenario whose windows start at its
  // leak slot, so a batch would resume it from the baseline. Every path a
  // trajectory can take must reject it: the batch resuming or running
  // from step 0, Simulation::run, and the engine at either start.
  const LeakScenario base = scenarios_[0];
  const double t = static_cast<double>(base.leak_slot) * 900.0;
  const hydraulics::NodeId junction = net_.junction_ids()[0];
  hydraulics::NodeId reservoir = 0;
  while (net_.node(reservoir).type != hydraulics::NodeType::kReservoir) ++reservoir;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, std::function<void(LeakScenario&)>>> cases{
      {"zero surge multiplier",
       [&](LeakScenario& s) { s.demand_events = {{junction, 0.0, t, t + 3600.0}}; }},
      {"NaN surge multiplier",
       [&](LeakScenario& s) { s.demand_events = {{junction, nan, t, t + 3600.0}}; }},
      {"surge at a reservoir",
       [&](LeakScenario& s) { s.demand_events = {{reservoir, 2.0, t, t + 3600.0}}; }},
      {"surge on a node past the network",
       [&](LeakScenario& s) { s.demand_events = {{net_.num_nodes(), 2.0, t, t + 3600.0}}; }},
      {"empty closure window", [&](LeakScenario& s) { s.operations = {{0, t, t}}; }},
      {"closure on a link past the network",
       [&](LeakScenario& s) { s.operations = {{net_.num_links(), t, t + 3600.0}}; }},
      {"zero leak EC", [](LeakScenario& s) { s.events[0].coefficient = 0.0; }},
      {"leak ramp -900 s", [](LeakScenario& s) { s.events[0].ramp_s = -900.0; }},
      {"leak exponent 0", [](LeakScenario& s) { s.events[0].exponent = 0.0; }},
      {"tank scale 0", [](LeakScenario& s) { s.tank_init_scale = 0.0; }},
  };

  hydraulics::SimulationOptions options;
  options.duration_s = static_cast<double>(base.leak_slot + 2) * options.hydraulic_step_s;
  const hydraulics::BaselineTrajectory baseline(net_, options, base.leak_slot - 1);
  hydraulics::ReplayEngine engine(baseline);
  for (const auto& [name, spoil] : cases) {
    SCOPED_TRACE(name);
    std::vector<LeakScenario> scenarios{base};
    spoil(scenarios[0]);
    for (const bool use_replay : {true, false}) {
      EXPECT_THROW(SnapshotBatch(net_, scenarios, {1}, {}, false, use_replay), InvalidArgument)
          << "use_replay " << use_replay;
    }
    const hydraulics::ScenarioDynamics dynamics = scenarios[0].dynamics();
    EXPECT_THROW(hydraulics::Simulation(net_, options).run(dynamics), InvalidArgument);
    EXPECT_THROW(engine.replay(dynamics, base.leak_slot, 2), InvalidArgument);
    EXPECT_THROW(engine.replay(dynamics, 0, 2), InvalidArgument);
  }
  // The unspoiled scenario passes every path.
  const std::vector<LeakScenario> healthy{base};
  EXPECT_EQ(SnapshotBatch(net_, healthy, {1}).stats().replayed, 1u);
  EXPECT_NO_THROW(engine.replay(base.dynamics(), base.leak_slot, 2));
}

TEST_F(SnapshotTest, Validation) {
  EXPECT_THROW(SnapshotBatch(net_, scenarios_, {}), InvalidArgument);
  EXPECT_THROW(SnapshotBatch(net_, scenarios_, {4, 1}), InvalidArgument);
  const SnapshotBatch batch(net_, scenarios_, {1});
  EXPECT_THROW(batch.snapshots(scenarios_.size()), InvalidArgument);
  const auto sensors = sensing::full_observation(net_);
  Rng rng(1);
  EXPECT_THROW(batch.features(0, sensors, 5, {}, rng), InvalidArgument);
}

}  // namespace
}  // namespace aqua::core
