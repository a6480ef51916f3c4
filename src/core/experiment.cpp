#include "core/experiment.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/inference_engine.hpp"
#include "fusion/weather.hpp"

namespace aqua::core {

ExperimentContext::ExperimentContext(const hydraulics::Network& network, ExperimentConfig config)
    : network_(network), config_(std::move(config)), labels_(network) {
  AQUA_REQUIRE(config_.train_samples > 0 && config_.test_samples > 0,
               "need train and test samples");

  ScenarioGenerator generator(network_, config_.scenarios);
  train_scenarios_ = generator.generate(config_.train_samples);
  test_scenarios_ = generator.generate(config_.test_samples);

  hydraulics::SimulationOptions sim_options;
  train_batch_ = std::make_unique<SnapshotBatch>(network_, train_scenarios_,
                                                 config_.elapsed_slots, sim_options);
  test_batch_ = std::make_unique<SnapshotBatch>(network_, test_scenarios_,
                                                config_.elapsed_slots, sim_options);
}

const sensing::SensorSet& ExperimentContext::sensors_at(double percent, bool kmedoids) {
  const auto key = std::make_pair(static_cast<int>(std::lround(percent * 100.0)), kmedoids);
  const auto it = sensor_cache_.find(key);
  if (it != sensor_cache_.end()) return it->second;

  const std::size_t count = sensing::sensors_for_percentage(network_, percent);
  sensing::SensorSet sensors;
  if (percent >= 100.0) {
    sensors = sensing::full_observation(network_);
  } else if (kmedoids) {
    if (!baseline_day_) {
      // Healthy 24 h baseline at the IoT cadence for placement signatures.
      hydraulics::Simulation baseline(network_, {});
      baseline_day_ = baseline.run();
    }
    sensors = sensing::place_sensors_kmedoids(network_, *baseline_day_, count,
                                              config_.seed ^ 0x5e5e5e5eULL);
  } else {
    sensors = sensing::place_sensors_random(network_, count, config_.seed ^ 0x7a7a7a7aULL);
  }
  return sensor_cache_.emplace(key, std::move(sensors)).first->second;
}

ProfileModel ExperimentContext::train(const EvalOptions& options) {
  AQUA_REQUIRE(options.elapsed_index < config_.elapsed_slots.size(),
               "elapsed index out of range");
  const auto& sensors = sensors_at(options.iot_percent, options.kmedoids_placement);
  ProfileTrainingConfig training;
  training.kind = options.kind;
  training.noise = config_.noise;
  training.include_time_feature = options.include_time_feature;
  training.noise_seed = config_.seed ^ 0x1111ULL;
  return train_profile(*train_batch_, train_scenarios_, sensors, options.elapsed_index, training);
}

EvalResult ExperimentContext::evaluate(const EvalOptions& options) {
  const ProfileModel profile = train(options);
  return evaluate_profile(profile, options);
}

EvalResult ExperimentContext::evaluate_profile(const ProfileModel& profile,
                                               const EvalOptions& options) {
  AQUA_REQUIRE(profile.model.fitted(), "profile not trained");
  sensing::check_sensor_names(test_batch_->network(), profile.sensors);
  EvalResult result;
  result.train_seconds = profile.train_seconds;
  result.test_samples = test_scenarios_.size();

  fusion::TweetGenerator tweet_generator(options.tweets);
  const std::size_t elapsed = config_.elapsed_slots[options.elapsed_index];

  // Effective weather-expert probability (see EvalOptions::calibrated_weather).
  double weather_expert = options.p_leak_given_freeze;
  if (options.calibrated_weather) {
    const double likelihood_ratio = 1.0 / std::max(config_.scenarios.freeze.p_freeze, 1e-6);
    weather_expert = likelihood_ratio / (1.0 + likelihood_ratio);
  }

  std::vector<ml::Labels> fused, iot_only, truth;
  fused.reserve(test_scenarios_.size());
  Rng root(config_.seed ^ 0x9999ULL);
  double total_infer_seconds = 0.0;

  // Build the whole test batch up front, then run it through the batched
  // serving layer in one call (bit-identical to the per-scenario loop, but
  // the profile evaluation hoists the classifiers' shared input map).
  std::vector<InferenceInputs> batch(test_scenarios_.size());
  for (std::size_t i = 0; i < test_scenarios_.size(); ++i) {
    const LeakScenario& scenario = test_scenarios_[i];
    Rng rng = root.split();

    InferenceInputs& inputs = batch[i];
    // Scenario sensor faults (scenario-diversity engine) degrade the test
    // features the same way build_dataset degrades training rows.
    const auto faults =
        sensing::resolve_sensor_faults(scenario.sensor_faults, profile.sensors.size());
    inputs.features.resize(profile.num_features());
    test_batch_->features_into(i, profile.sensors, options.elapsed_index, profile.noise, rng,
                               profile.include_time_feature, faults, inputs.features);
    inputs.p_leak_given_freeze = weather_expert;
    inputs.entropy_threshold = options.entropy_threshold;

    // Weather expert applies only when the ambient temperature is below
    // the freezing threshold (Sec. III-C).
    if (options.use_weather && scenario.temperature_f < fusion::kFreezeThresholdF) {
      inputs.frozen = scenario.frozen;
    }

    if (options.use_human) {
      std::vector<hydraulics::NodeId> leak_nodes;
      for (const auto& event : scenario.events) leak_nodes.push_back(event.node);
      const auto tweets = tweet_generator.generate(network_, leak_nodes, elapsed, rng);
      const auto cliques = tweet_generator.build_cliques(network_, tweets);
      inputs.cliques = to_label_cliques(cliques, labels_);
    }
  }

  const InferenceEngine engine(profile);
  const std::vector<InferenceResult> inferences = engine.infer_batch(batch);
  for (std::size_t i = 0; i < inferences.size(); ++i) {
    total_infer_seconds += inferences[i].infer_seconds;
    fused.push_back(inferences[i].predicted);
    iot_only.push_back(inferences[i].predicted_iot_only);
    truth.push_back(test_scenarios_[i].truth);
  }

  result.hamming = ml::mean_hamming_score(fused, truth);
  result.hamming_iot_only = ml::mean_hamming_score(iot_only, truth);
  result.prf = ml::micro_precision_recall(fused, truth);
  result.mean_infer_seconds = total_infer_seconds / static_cast<double>(test_scenarios_.size());
  return result;
}

}  // namespace aqua::core
