// Experiment orchestration shared by the figure-reproduction benches and
// integration tests. An ExperimentContext simulates a scenario corpus once
// (train + test) and can then evaluate any combination of model kind, IoT
// percentage, elapsed slots, and information sources without re-running
// hydraulics — mirroring how the paper sweeps configurations over fixed
// 20,000/2,000 scenario sets.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/enumeration.hpp"
#include "core/pipeline.hpp"
#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "fusion/human.hpp"
#include "ml/metrics.hpp"

namespace aqua::core {

struct ExperimentConfig {
  ScenarioConfig scenarios;
  std::size_t train_samples = 1200;
  std::size_t test_samples = 250;
  /// Elapsed-slot values snapshots are kept for (ascending).
  std::vector<std::size_t> elapsed_slots = {1};
  sensing::NoiseModel noise;
  std::uint64_t seed = 99;
};

struct EvalOptions {
  ModelKind kind = ModelKind::kHybridRsl;
  double iot_percent = 100.0;
  std::size_t elapsed_index = 0;
  bool use_weather = false;
  bool use_human = false;
  fusion::TweetModelConfig tweets;   // gamma lives here (clique_radius_m)
  double p_leak_given_freeze = 0.9;
  /// When true (default), the weather expert's probability is derived from
  /// the freeze process's actual likelihood ratio P(frozen|leak) /
  /// P(frozen|no leak) = 1 / p_freeze instead of the paper's literal 0.9.
  /// The literal value assumes sklearn-style uncalibrated class
  /// probabilities; against this library's class-balanced (recall-shifted)
  /// probabilities it multiplies every frozen node's odds by 9 and floods
  /// the prediction with false positives. The calibrated ratio preserves
  /// Eq. 5-6 and the paper's qualitative result (small positive weather
  /// increment). Set false to reproduce the literal parameterization.
  bool calibrated_weather = true;
  double entropy_threshold = 0.0;    // Γ
  bool kmedoids_placement = true;    // false = random placement (ablation)
  bool include_time_feature = true;  // false = Δ-only features (ablation)
};

struct EvalResult {
  double hamming = 0.0;           // final fused prediction
  double hamming_iot_only = 0.0;  // profile-only prediction
  ml::PrecisionRecall prf;        // of the fused prediction
  double train_seconds = 0.0;
  double mean_infer_seconds = 0.0;
  std::size_t test_samples = 0;

  double increment() const noexcept { return hamming - hamming_iot_only; }
};

class ExperimentContext {
 public:
  /// Heavy constructor: generates scenarios and simulates every one.
  ExperimentContext(const hydraulics::Network& network, ExperimentConfig config);

  const hydraulics::Network& network() const noexcept { return network_; }
  const ExperimentConfig& config() const noexcept { return config_; }
  const LabelSpace& labels() const noexcept { return labels_; }
  const std::vector<LeakScenario>& train_scenarios() const noexcept { return train_scenarios_; }
  const std::vector<LeakScenario>& test_scenarios() const noexcept { return test_scenarios_; }
  const SnapshotBatch& train_batch() const noexcept { return *train_batch_; }
  const SnapshotBatch& test_batch() const noexcept { return *test_batch_; }

  /// Sensor set for an IoT percentage (cached; k-medoids on a healthy
  /// baseline day, or uniform-random for the placement ablation).
  const sensing::SensorSet& sensors_at(double percent, bool kmedoids = true);

  /// Trains a profile and evaluates it on the test scenarios with the
  /// requested information sources.
  EvalResult evaluate(const EvalOptions& options);

  /// Evaluates an already trained profile (reuse across source toggles).
  /// Throws InvalidArgument when the profile's sensors name other elements
  /// than they index on this network (sensing::check_sensor_names).
  EvalResult evaluate_profile(const ProfileModel& profile, const EvalOptions& options);

  /// Trains a profile with the given options (exposed for detection-time
  /// and ablation benches).
  ProfileModel train(const EvalOptions& options);

 private:
  const hydraulics::Network& network_;
  ExperimentConfig config_;
  LabelSpace labels_;
  std::vector<LeakScenario> train_scenarios_;
  std::vector<LeakScenario> test_scenarios_;
  std::unique_ptr<SnapshotBatch> train_batch_;
  std::unique_ptr<SnapshotBatch> test_batch_;
  std::optional<hydraulics::SimulationResults> baseline_day_;
  std::map<std::pair<int, bool>, sensing::SensorSet> sensor_cache_;  // key: percent*100
};

}  // namespace aqua::core
