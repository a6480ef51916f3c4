// Tests for the experiment harness itself (core/experiment.*): the
// machinery every bench relies on. Built on one shared small context.
// The benches' correctness-gate helper (bench/bench_util.hpp) is
// checked here too.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "core/aquascale.hpp"

namespace aqua::core {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new hydraulics::Network(networks::make_epa_net());
    ExperimentConfig config;
    config.train_samples = 150;
    config.test_samples = 30;
    config.scenarios.min_events = 1;
    config.scenarios.max_events = 2;
    config.scenarios.cold_weather = true;
    config.elapsed_slots = {1, 4};
    config.seed = 555;
    context_ = new ExperimentContext(*net_, config);
  }
  static void TearDownTestSuite() {
    delete context_;
    delete net_;
    context_ = nullptr;
    net_ = nullptr;
  }
  static hydraulics::Network* net_;
  static ExperimentContext* context_;
};

hydraulics::Network* HarnessTest::net_ = nullptr;
ExperimentContext* HarnessTest::context_ = nullptr;

TEST_F(HarnessTest, CorpusSizesMatchConfig) {
  EXPECT_EQ(context_->train_scenarios().size(), 150u);
  EXPECT_EQ(context_->test_scenarios().size(), 30u);
  EXPECT_EQ(context_->train_batch().size(), 150u);
  EXPECT_EQ(context_->test_batch().size(), 30u);
}

TEST_F(HarnessTest, TrainAndTestScenariosDiffer) {
  // Same generator stream, consecutive draws — the corpora must not alias.
  const auto& train = context_->train_scenarios();
  const auto& test = context_->test_scenarios();
  bool any_difference = false;
  for (std::size_t i = 0; i < test.size(); ++i) {
    any_difference = any_difference || (test[i].truth != train[i].truth);
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(HarnessTest, SensorCountFollowsPercentage) {
  EXPECT_EQ(context_->sensors_at(100.0).size(),
            net_->num_nodes() + net_->num_links());
  EXPECT_EQ(context_->sensors_at(10.0).size(), sensing::sensors_for_percentage(*net_, 10.0));
}

TEST_F(HarnessTest, ElapsedIndexSelectsDifferentFeatures) {
  EvalOptions options;
  options.kind = ModelKind::kLogisticR;
  options.iot_percent = 50.0;
  options.elapsed_index = 0;
  const auto near = context_->evaluate(options);
  options.elapsed_index = 1;
  const auto far = context_->evaluate(options);
  // Different feature windows must at least produce a result; scores are
  // config-dependent but both should be valid probabilistic outcomes.
  EXPECT_GE(near.hamming, 0.0);
  EXPECT_LE(near.hamming, 1.0);
  EXPECT_GE(far.hamming, 0.0);
  EXPECT_LE(far.hamming, 1.0);
}

TEST_F(HarnessTest, ElapsedIndexOutOfRangeThrows) {
  EvalOptions options;
  options.elapsed_index = 7;
  EXPECT_THROW(context_->train(options), InvalidArgument);
}

TEST_F(HarnessTest, LiteralWeatherParameterizationIsMoreAggressive) {
  EvalOptions options;
  options.kind = ModelKind::kLogisticR;
  options.iot_percent = 50.0;
  options.use_weather = true;
  const auto profile = context_->train(options);

  options.calibrated_weather = true;
  const auto calibrated = context_->evaluate_profile(profile, options);
  options.calibrated_weather = false;  // the paper's literal 0.9
  const auto literal = context_->evaluate_profile(profile, options);
  // The literal x9-odds update must flag at least as many nodes (it can
  // only push probabilities up harder), so recall can't go down.
  EXPECT_GE(literal.prf.recall, calibrated.prf.recall - 1e-9);
  // And precision suffers for it on cold scenarios with 80% frozen nodes.
  EXPECT_LE(literal.prf.precision, calibrated.prf.precision + 1e-9);
}

TEST_F(HarnessTest, IncrementIsFusedMinusBase) {
  EvalOptions options;
  options.kind = ModelKind::kLogisticR;
  options.iot_percent = 30.0;
  options.use_human = true;
  const auto result = context_->evaluate(options);
  EXPECT_NEAR(result.increment(), result.hamming - result.hamming_iot_only, 1e-12);
}

TEST_F(HarnessTest, EvaluateProfileRequiresTrainedModel) {
  ProfileModel empty;
  EvalOptions options;
  EXPECT_THROW(context_->evaluate_profile(empty, options), InvalidArgument);
}

TEST_F(HarnessTest, EvaluateProfileRejectsSensorsNamingOtherElements) {
  // Two sensors with swapped names index the right range but the wrong
  // elements; evaluate_profile checks every name before featurizing.
  ProfileModel profile;
  profile.sensors = sensing::full_observation(*net_);
  std::swap(profile.sensors.sensors[0].name, profile.sensors.sensors[1].name);
  ml::MultiLabelDataset data;
  data.features = ml::Matrix(4, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    data.features(i, 0) = static_cast<double>(i);
    data.labels.push_back({static_cast<std::uint8_t>(i % 2)});
  }
  profile.model = ml::MultiLabelModel(make_classifier_factory(ModelKind::kLogisticR));
  profile.model.fit(data);
  try {
    (void)context_->evaluate_profile(profile, EvalOptions{});
    ADD_FAILURE() << "evaluated sensors that name other elements";
  } catch (const InvalidArgument& error) {
    const std::string expected =
        "sensor '" + profile.sensors.sensors[0].name + "' indexes node 0";
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos) << error.what();
  }
}

TEST_F(HarnessTest, ModelKindNamesAreUniqueAndComplete) {
  const auto kinds = all_model_kinds();
  EXPECT_EQ(kinds.size(), 6u);
  std::set<std::string> names;
  for (const auto kind : kinds) names.insert(model_kind_name(kind));
  EXPECT_EQ(names.size(), 6u);
  EXPECT_EQ(model_kind_name(ModelKind::kHybridRsl), "HybridRSL");
}

TEST_F(HarnessTest, FactoriesProduceMatchingNames) {
  for (const auto kind : all_model_kinds()) {
    const auto classifier = make_classifier_factory(kind)();
    EXPECT_EQ(classifier->name(), model_kind_name(kind));
  }
}

TEST(BenchGates, ExitStatusIsNonzeroOnceAnyGateFails) {
  bench::Gates gates;
  EXPECT_EQ(gates.exit_status(), 0);  // no gate checked yet
  EXPECT_TRUE(gates.check(true, "passing gate"));
  EXPECT_EQ(gates.failures(), 0u);
  EXPECT_EQ(gates.exit_status(), 0);

  EXPECT_FALSE(gates.check(false, "failing gate"));
  EXPECT_TRUE(gates.check(true, "later passing gate"));  // does not clear the failure
  EXPECT_FALSE(gates.check(false, "second failing gate"));
  EXPECT_EQ(gates.failures(), 2u);
  EXPECT_NE(gates.exit_status(), 0);
}

TEST(BenchGates, JsonReportReturnsFalseWhenTheFileCannotBeWritten) {
  const bench::Metrics metrics = {{"rows", 3.0}};
  // The report path BENCH_<name>.json lies inside a directory that does
  // not exist, so it cannot be opened.
  EXPECT_FALSE(bench::json_report("no_such_dir/report", metrics));
  // A writable report returns true and holds the metric.
  ASSERT_TRUE(bench::json_report("json_report_probe", metrics));
  std::ifstream written("BENCH_json_report_probe.json");
  const std::string text((std::istreambuf_iterator<char>(written)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"rows\": 3"), std::string::npos) << text;
  std::remove("BENCH_json_report_probe.json");
}

}  // namespace
}  // namespace aqua::core
