// Phase I (Sec. IV-A, Algorithm 1): train the offline profile model
// f = {f_v} on a large corpus of simulated scenarios. The model kind is
// plug-and-play; `make_classifier_factory` exposes the paper's lineup. A
// trained ProfileModel is saved as one AQUAMODL artifact (io/artifact.hpp):
// the handoff from offline Phase I to online Phase II, read back by
// ProfileModel::load, load_file and serving::load_bundle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/label_space.hpp"
#include "core/snapshots.hpp"
#include "ml/multilabel.hpp"
#include "sensing/placement.hpp"

namespace aqua::core {

enum class ModelKind {
  kLinearR,
  kLogisticR,
  kGradientBoosting,
  kRandomForest,
  kSvm,
  kHybridRsl,
};

std::string model_kind_name(ModelKind kind);

/// All kinds, in the order the paper's Fig. 6 compares them.
std::vector<ModelKind> all_model_kinds();

/// Factory producing fresh classifiers of the given kind with sensible
/// defaults for per-node leak classification.
ml::ClassifierFactory make_classifier_factory(ModelKind kind);

/// The trained profile plus everything needed to featurize live data the
/// same way the training set was featurized.
struct ProfileModel {
  ml::MultiLabelModel model;
  sensing::SensorSet sensors;
  sensing::NoiseModel noise;
  bool include_time_feature = true;
  /// The kind of `model`'s classifiers; save() requires that they agree,
  /// and load() derives it from the model payload's kind tag.
  ModelKind kind = ModelKind::kHybridRsl;
  std::size_t elapsed_index = 0;  // which entry of the batch's elapsed list
  double train_seconds = 0.0;

  /// Width of a feature row this profile takes: one per sensor, plus the
  /// time feature when enabled.
  std::size_t num_features() const noexcept {
    return sensors.size() + (include_time_feature ? 1 : 0);
  }

  /// Persists the trained profile as a versioned, checksummed artifact
  /// (io/artifact.hpp). `load(save(p))` predicts bit-identically to `p`, so
  /// Phase II services can skip Phase I entirely on a warm artifact.
  /// Throws InvalidArgument when `kind` names another kind than `model`
  /// holds.
  void save(std::ostream& out) const;

  /// Restores a profile written by save(), reading the stream to its end;
  /// throws io::SerializationError on truncated, corrupted, wrong-version
  /// or over-long artifacts.
  static ProfileModel load(std::istream& in);

  /// Convenience: save to / load from a filesystem path. load_file opens
  /// the file and calls load(); a missing or empty file throws
  /// io::SerializationError like any other bad artifact.
  void save_file(const std::string& path) const;
  static ProfileModel load_file(const std::string& path);
};

struct ProfileTrainingConfig {
  ModelKind kind = ModelKind::kHybridRsl;
  sensing::NoiseModel noise;
  bool include_time_feature = true;
  std::uint64_t noise_seed = 555;
};

/// Trains a profile on the batch's scenarios at the given elapsed index.
ProfileModel train_profile(const SnapshotBatch& batch, std::span<const LeakScenario> scenarios,
                           const sensing::SensorSet& sensors, std::size_t elapsed_index,
                           const ProfileTrainingConfig& config);

}  // namespace aqua::core
