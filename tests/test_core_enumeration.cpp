#include "core/enumeration.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/snapshots.hpp"
#include "networks/builtin.hpp"
#include "sensing/placement.hpp"

namespace aqua::core {
namespace {

class EnumerationTest : public ::testing::Test {
 protected:
  EnumerationTest() : net_(networks::make_epa_net()), labels_(net_) {}

  /// Noise-free observed deltas for a leak at `label` with size `ec`,
  /// using snapshot-mode dynamics consistent with the localizer.
  std::vector<double> observed_for(const sensing::SensorSet& sensors, std::size_t label,
                                   double ec, std::size_t before_period,
                                   std::size_t after_period) {
    hydraulics::Network leaky = net_;
    leaky.set_emitter(labels_.node_of(label), ec);
    auto demands = [&](const hydraulics::Network& n, std::size_t period) {
      std::vector<double> d(n.num_nodes(), 0.0);
      for (hydraulics::NodeId v = 0; v < n.num_nodes(); ++v) d[v] = n.demand_at(v, period);
      return d;
    };
    std::vector<double> fixed(net_.num_nodes(), 0.0);
    for (hydraulics::NodeId v = 0; v < net_.num_nodes(); ++v) {
      const auto& node = net_.node(v);
      if (node.type == hydraulics::NodeType::kReservoir) fixed[v] = node.elevation;
      if (node.type == hydraulics::NodeType::kTank) fixed[v] = node.elevation + node.init_level;
    }
    hydraulics::GgaSolver healthy(net_);
    const auto before = healthy.solve(demands(net_, before_period), fixed);
    hydraulics::GgaSolver solver(leaky);
    const auto after = solver.solve(demands(leaky, after_period), fixed, &before);
    std::vector<double> deltas(sensors.size());
    for (std::size_t i = 0; i < sensors.size(); ++i) {
      const auto& s = sensors.sensors[i];
      deltas[i] = s.kind == sensing::SensorKind::kPressure
                      ? after.pressure[s.index] - before.pressure[s.index]
                      : after.flow[s.index] - before.flow[s.index];
    }
    return deltas;
  }

  hydraulics::Network net_;
  LabelSpace labels_;
};

TEST_F(EnumerationTest, RecoversSingleLeakWithCleanObservations) {
  const auto sensors = sensing::full_observation(net_);
  EnumerationConfig config;
  config.candidate_ecs = {0.004};  // the true size is among the candidates
  config.max_leaks = 2;
  const EnumerationLocalizer localizer(net_, sensors, config);
  const std::size_t truth = 40;
  const auto observed = observed_for(sensors, truth, 0.004, 0, 0);
  const auto outcome = localizer.localize(observed, 0, 0);
  EXPECT_EQ(outcome.predicted[truth], 1);
  std::size_t positives = 0;
  for (auto p : outcome.predicted) positives += p;
  EXPECT_LE(positives, 2u);
  EXPECT_GT(outcome.hydraulic_solves, labels_.num_labels());  // it really enumerated
}

TEST_F(EnumerationTest, ScreeningPrunesTrialsAndKeepsTheLeak) {
  const auto sensors = sensing::full_observation(net_);
  const std::size_t truth = 40;
  const auto observed = observed_for(sensors, truth, 0.004, 0, 0);

  EnumerationConfig config;
  config.candidate_ecs = {0.004};
  config.max_leaks = 2;
  const EnumerationLocalizer unscreened_localizer(net_, sensors, config);
  const auto unscreened = unscreened_localizer.localize(observed, 0, 0);

  config.screen_top_k = 10;
  const EnumerationLocalizer screened_localizer(net_, sensors, config);
  const auto screened = screened_localizer.localize(observed, 0, 0);

  // The linearized probe must rank the true leak into the top 10 of the
  // candidate set, and the greedy search over the pruned set still finds
  // it — with far fewer full hydraulic solves.
  EXPECT_EQ(screened.predicted[truth], 1);
  EXPECT_EQ(screened.screened_labels, 10u);
  EXPECT_EQ(unscreened.screened_labels, labels_.num_labels());
  EXPECT_LT(screened.hydraulic_solves, unscreened.hydraulic_solves / 2);
}

TEST_F(EnumerationTest, NoLeakNoDetection) {
  const auto sensors = sensing::full_observation(net_);
  EnumerationConfig config;
  config.candidate_ecs = {0.004};
  const EnumerationLocalizer localizer(net_, sensors, config);
  const std::vector<double> observed(sensors.size(), 0.0);  // healthy system
  const auto outcome = localizer.localize(observed, 0, 0);
  for (auto p : outcome.predicted) EXPECT_EQ(p, 0);
}

TEST_F(EnumerationTest, ResidualDecreasesWhenLeakFound) {
  const auto sensors = sensing::full_observation(net_);
  EnumerationConfig config;
  config.candidate_ecs = {0.004};
  const EnumerationLocalizer localizer(net_, sensors, config);
  const auto observed = observed_for(sensors, 20, 0.004, 0, 0);
  const auto outcome = localizer.localize(observed, 0, 0);
  // Final residual should be tiny: the hypothesis space contains the truth.
  EXPECT_LT(outcome.residual, 0.05);
}

TEST_F(EnumerationTest, TracksCostInSolvesAndSeconds) {
  const auto sensors = sensing::full_observation(net_);
  EnumerationConfig config;
  config.candidate_ecs = {0.003};
  config.max_leaks = 1;
  const EnumerationLocalizer localizer(net_, sensors, config);
  const auto observed = observed_for(sensors, 10, 0.003, 0, 0);
  const auto outcome = localizer.localize(observed, 0, 0);
  EXPECT_GT(outcome.seconds, 0.0);
  // At least one solve per candidate label in round one.
  EXPECT_GE(outcome.hydraulic_solves, labels_.num_labels());
}

TEST_F(EnumerationTest, Validation) {
  const auto sensors = sensing::full_observation(net_);
  EnumerationConfig bad;
  bad.candidate_ecs = {};
  EXPECT_THROW(EnumerationLocalizer(net_, sensors, bad), InvalidArgument);
  const EnumerationLocalizer localizer(net_, sensors, {});
  EXPECT_THROW(localizer.localize(std::vector<double>{1.0}, 0, 0), InvalidArgument);
  // A non-finite reading would break the screening sort's ordering and
  // every residual comparison, so it is rejected up front, screened or not.
  EnumerationConfig screened;
  screened.screen_top_k = 8;
  const EnumerationLocalizer screening_localizer(net_, sensors, screened);
  for (const double bad_reading : {std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::infinity()}) {
    std::vector<double> observed = observed_for(sensors, 20, 0.004, 0, 0);
    observed[observed.size() / 2] = bad_reading;
    EXPECT_THROW(localizer.localize(observed, 0, 0), InvalidArgument);
    EXPECT_THROW(screening_localizer.localize(observed, 0, 0), InvalidArgument);
  }
}

}  // namespace
}  // namespace aqua::core
