#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/inference_engine.hpp"
#include "networks/builtin.hpp"

namespace aqua::core {
namespace {

/// Shared small experiment context (expensive to build, so build once).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new hydraulics::Network(networks::make_epa_net());
    ExperimentConfig config;
    config.train_samples = 250;
    config.test_samples = 40;
    config.scenarios.min_events = 1;
    config.scenarios.max_events = 2;
    config.scenarios.cold_weather = true;
    config.elapsed_slots = {1};
    config.seed = 21;
    context_ = new ExperimentContext(*net_, config);
    EvalOptions options;
    options.kind = ModelKind::kLogisticR;  // fast and strong at full IoT
    options.iot_percent = 100.0;
    profile_ = new ProfileModel(context_->train(options));
    engine_ = new InferenceEngine(*profile_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete profile_;
    delete context_;
    delete net_;
    engine_ = nullptr;
    profile_ = nullptr;
    context_ = nullptr;
    net_ = nullptr;
  }

  static hydraulics::Network* net_;
  static ExperimentContext* context_;
  static ProfileModel* profile_;
  static InferenceEngine* engine_;
};

hydraulics::Network* PipelineTest::net_ = nullptr;
ExperimentContext* PipelineTest::context_ = nullptr;
ProfileModel* PipelineTest::profile_ = nullptr;
InferenceEngine* PipelineTest::engine_ = nullptr;

std::vector<double> test_features(const ExperimentContext& context, const ProfileModel& profile,
                                  std::size_t scenario_index) {
  Rng rng(1000 + scenario_index);
  return context.test_batch().features(scenario_index, profile.sensors, 0, profile.noise, rng,
                                       profile.include_time_feature);
}

TEST_F(PipelineTest, IotOnlyInferenceProducesSaneBeliefs) {
  InferenceInputs inputs;
  inputs.features = test_features(*context_, *profile_, 0);
  const auto result = engine_->infer(inputs);
  EXPECT_EQ(result.beliefs.size(), context_->labels().num_labels());
  for (double p : result.beliefs.p_leak) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(result.predicted, result.predicted_iot_only);  // no fusion applied
  EXPECT_EQ(result.weather_updates, 0u);
}

TEST_F(PipelineTest, ProfileActuallyLocalizesAtFullIot) {
  // The trained profile should beat chance by a wide margin on the test
  // scenarios (full observation, EPA-NET, <=2 leaks).
  std::vector<ml::Labels> predictions, truth;
  for (std::size_t i = 0; i < context_->test_scenarios().size(); ++i) {
    InferenceInputs inputs;
    inputs.features = test_features(*context_, *profile_, i);
    predictions.push_back(engine_->infer(inputs).predicted);
    truth.push_back(context_->test_scenarios()[i].truth);
  }
  EXPECT_GT(ml::mean_hamming_score(predictions, truth), 0.5);
}

TEST_F(PipelineTest, WeatherUpdateOnlyTouchesFrozenLabels) {
  InferenceInputs inputs;
  inputs.features = test_features(*context_, *profile_, 1);
  const auto base = engine_->infer(inputs);
  inputs.frozen.assign(context_->labels().num_labels(), 0);
  inputs.frozen[3] = 1;
  inputs.frozen[7] = 1;
  const auto fused = engine_->infer(inputs);
  EXPECT_EQ(fused.weather_updates, 2u);
  for (std::size_t v = 0; v < base.beliefs.size(); ++v) {
    if (v == 3 || v == 7) {
      EXPECT_GE(fused.beliefs.p_leak[v], base.beliefs.p_leak[v]);
    } else {
      EXPECT_DOUBLE_EQ(fused.beliefs.p_leak[v], base.beliefs.p_leak[v]);
    }
  }
}

TEST_F(PipelineTest, HumanCliqueForcesDetection) {
  InferenceInputs inputs;
  inputs.features = test_features(*context_, *profile_, 2);
  // Construct a clique around a label that is uncertain (nonzero entropy)
  // but currently not predicted.
  const auto base = engine_->infer(inputs);
  std::size_t quiet = 0;
  bool found = false;
  for (std::size_t v = 0; v < base.beliefs.size() && !found; ++v) {
    if (base.beliefs.p_leak[v] > 0.05 && base.beliefs.p_leak[v] < 0.4) {
      quiet = v;
      found = true;
    }
  }
  if (!found) GTEST_SKIP() << "no uncertain unpredicted label in this sample";
  inputs.cliques.push_back({{quiet}, 0.9});
  const auto tuned = engine_->infer(inputs);
  EXPECT_EQ(tuned.predicted[quiet], 1);
  EXPECT_EQ(tuned.tuning.added_labels.size(), 1u);
  EXPECT_LT(tuned.energy_after, tuned.energy_before);
}

TEST_F(PipelineTest, ConsistentCliqueChangesNothing) {
  InferenceInputs inputs;
  inputs.features = test_features(*context_, *profile_, 3);
  const auto base = engine_->infer(inputs);
  // Find a predicted label, then a clique containing it is consistent.
  std::size_t hot = 0;
  bool found = false;
  for (std::size_t v = 0; v < base.predicted.size() && !found; ++v) {
    if (base.predicted[v] != 0) {
      hot = v;
      found = true;
    }
  }
  if (!found) GTEST_SKIP() << "no predicted label in this sample";
  inputs.cliques.push_back({{hot}, 0.9});
  const auto tuned = engine_->infer(inputs);
  EXPECT_EQ(tuned.predicted, base.predicted);
  EXPECT_EQ(tuned.tuning.cliques_consistent, 1u);
}

TEST_F(PipelineTest, ToLabelCliquesFiltersNonJunctions) {
  std::vector<fusion::Clique> cliques(1);
  // Mix a junction with a reservoir node (reservoirs carry no label).
  const auto& labels = context_->labels();
  cliques[0].nodes.push_back(labels.node_of(0));
  for (hydraulics::NodeId v = 0; v < net_->num_nodes(); ++v) {
    if (net_->node(v).has_fixed_head()) {
      cliques[0].nodes.push_back(v);
      break;
    }
  }
  cliques[0].confidence = 0.7;
  const auto mapped = to_label_cliques(cliques, labels);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped[0].labels, std::vector<std::size_t>{0});
  EXPECT_DOUBLE_EQ(mapped[0].confidence, 0.7);
}

TEST_F(PipelineTest, EmptyCliquesDropped) {
  std::vector<fusion::Clique> cliques(1);  // no nodes at all
  EXPECT_TRUE(to_label_cliques(cliques, context_->labels()).empty());
}

TEST_F(PipelineTest, UntrainedProfileRejected) {
  const ProfileModel empty;
  EXPECT_THROW(InferenceEngine engine(empty), InvalidArgument);
}

TEST_F(PipelineTest, EvaluateProfileReportsConsistentScores) {
  EvalOptions options;
  options.kind = ModelKind::kLogisticR;
  options.iot_percent = 100.0;
  const auto result = context_->evaluate_profile(*profile_, options);
  EXPECT_EQ(result.test_samples, context_->test_scenarios().size());
  EXPECT_DOUBLE_EQ(result.hamming, result.hamming_iot_only);  // no sources enabled
  EXPECT_GT(result.hamming, 0.4);
  EXPECT_GE(result.mean_infer_seconds, 0.0);
}

TEST_F(PipelineTest, FusionSourcesDoNotHurtOnAverage) {
  EvalOptions options;
  options.kind = ModelKind::kLogisticR;
  options.iot_percent = 100.0;
  options.use_weather = true;
  options.use_human = true;
  const auto fused = context_->evaluate_profile(*profile_, options);
  // Increment can be small at full IoT but should not collapse the score.
  EXPECT_GT(fused.hamming, fused.hamming_iot_only - 0.1);
}

}  // namespace
}  // namespace aqua::core
