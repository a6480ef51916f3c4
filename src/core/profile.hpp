// Phase I (Sec. IV-A, Algorithm 1): train the offline profile model
// f = {f_v} on a large corpus of simulated scenarios. The model kind is
// plug-and-play; `make_classifier_factory` exposes the paper's lineup.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/label_space.hpp"
#include "core/snapshots.hpp"
#include "ml/multilabel.hpp"
#include "sensing/placement.hpp"

namespace aqua::io {
class ArtifactSource;
}

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
/// defaults for per-node leak classification. `max_bins` overrides the
/// tree ensembles' histogram bin budget (0 = keep the kind's default;
/// ignored by non-tree kinds).
ml::ClassifierFactory make_classifier_factory(ModelKind kind, std::size_t max_bins = 0);

/// The trained profile plus everything needed to featurize live data the
/// same way the training set was featurized.
struct ProfileModel {
  ml::MultiLabelModel model;
  sensing::SensorSet sensors;
  sensing::NoiseModel noise;
  bool include_time_feature = true;
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
  void save(std::ostream& out) const;

  /// Restores a profile written by save(); throws io::SerializationError on
  /// truncated, corrupted, or wrong-version artifacts.
  static ProfileModel load(std::istream& in);

  /// Decodes a profile from an already opened artifact (buffered or
  /// mmapped — any io::ArtifactSource). This is the path the serving
  /// daemon's publisher uses: open_artifact() + load() keeps the model
  /// bytes on the page cache until each section is decoded.
  static ProfileModel load(const io::ArtifactSource& artifact);

  /// Convenience: save to / load from a filesystem path. load_file prefers
  /// the zero-copy mmap reader and falls back to buffered I/O when the
  /// file cannot be mapped (io::open_artifact).
  void save_file(const std::string& path) const;
  static ProfileModel load_file(const std::string& path);
};

struct ProfileTrainingConfig {
  ModelKind kind = ModelKind::kHybridRsl;
  sensing::NoiseModel noise;
  bool include_time_feature = true;
  std::uint64_t noise_seed = 555;
  bool parallel = true;
  /// Histogram bin budget for tree-ensemble kinds (0 = kind default).
  std::size_t max_bins = 0;
};

/// Trains a profile on the batch's scenarios at the given elapsed index.
ProfileModel train_profile(const SnapshotBatch& batch, std::span<const LeakScenario> scenarios,
                           const sensing::SensorSet& sensors, std::size_t elapsed_index,
                           const ProfileTrainingConfig& config);

}  // namespace aqua::core
