#include "core/profile.hpp"

#include <chrono>
#include <fstream>

#include "common/error.hpp"
#include "io/artifact.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/hybrid_rsl.hpp"
#include "ml/linear_models.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace aqua::core {

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLinearR:
      return "LinearR";
    case ModelKind::kLogisticR:
      return "LogisticR";
    case ModelKind::kGradientBoosting:
      return "GB";
    case ModelKind::kRandomForest:
      return "RF";
    case ModelKind::kSvm:
      return "SVM";
    case ModelKind::kHybridRsl:
      return "HybridRSL";
  }
  return "unknown";
}

std::vector<ModelKind> all_model_kinds() {
  return {ModelKind::kLinearR, ModelKind::kLogisticR, ModelKind::kGradientBoosting,
          ModelKind::kRandomForest, ModelKind::kSvm, ModelKind::kHybridRsl};
}

ml::ClassifierFactory make_classifier_factory(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLinearR:
      return [] { return std::make_unique<ml::LinearRegressionClassifier>(); };
    case ModelKind::kLogisticR:
      return [] { return std::make_unique<ml::LogisticRegressionClassifier>(); };
    case ModelKind::kGradientBoosting:
      return [] { return std::make_unique<ml::GradientBoostingClassifier>(); };
    case ModelKind::kRandomForest:
      return [] { return std::make_unique<ml::RandomForestClassifier>(); };
    case ModelKind::kSvm:
      return [] { return std::make_unique<ml::SvmClassifier>(); };
    case ModelKind::kHybridRsl:
      return [] { return std::make_unique<ml::HybridRslClassifier>(); };
  }
  throw InvalidArgument("unknown model kind");
}

void ProfileModel::save(std::ostream& out) const {
  AQUA_REQUIRE(model.fitted(), "save of an untrained profile");
  if (model.kind() != model_kind_name(kind)) {
    throw InvalidArgument("profile kind '" + model_kind_name(kind) + "' differs from its model's '" +
                          model.kind() + "'");
  }
  io::ArtifactWriter artifact;
  auto& meta = artifact.section("profile");
  meta.write_u64(elapsed_index);
  meta.write_bool(include_time_feature);
  meta.write_f64(train_seconds);
  sensors.save(artifact.section("sensors"));
  noise.save(artifact.section("noise"));
  model.save(artifact.section("model"));
  artifact.write_to(out);
}

ProfileModel ProfileModel::load(std::istream& in) {
  const io::ArtifactReader artifact(in);
  ProfileModel profile;

  auto meta = artifact.section("profile");
  profile.elapsed_index = meta.read_u64();
  profile.include_time_feature = meta.read_bool();
  profile.train_seconds = meta.read_f64();
  meta.expect_end();

  auto sensors_reader = artifact.section("sensors");
  profile.sensors = sensing::SensorSet::load(sensors_reader);
  sensors_reader.expect_end();

  auto noise_reader = artifact.section("noise");
  profile.noise = sensing::NoiseModel::load(noise_reader);
  noise_reader.expect_end();

  auto model_reader = artifact.section("model");
  profile.model = ml::MultiLabelModel::load(model_reader);
  model_reader.expect_end();
  // The model decoder accepts only the six kind tags, model_kind_name's.
  for (const ModelKind kind : all_model_kinds()) {
    if (model_kind_name(kind) == profile.model.kind()) profile.kind = kind;
  }

  // Requests are checked against num_features() only, and the compiled
  // forest reads x[feature] unchecked: every fitted label must read within
  // it (a constant label reads nothing).
  const std::size_t dim = profile.num_features();
  for (std::size_t v = 0; v < profile.model.num_labels(); ++v) {
    const ml::BinaryClassifier* classifier = profile.model.classifier(v);
    if (classifier == nullptr) continue;
    const auto need = classifier->input_width();
    if (!need.admits(dim)) {
      throw io::SerializationError(
          "malformed profile: label " + std::to_string(v) + " reads " +
          (need.exact ? "exactly " : "at least ") + std::to_string(need.width) +
          " features, the sensors section gives " + std::to_string(dim));
    }
  }
  return profile;
}

void ProfileModel::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw io::SerializationError("cannot open '" + path + "' for writing");
  save(out);
  out.flush();
  if (!out) throw io::SerializationError("write failed while saving artifact to '" + path + "'");
}

ProfileModel ProfileModel::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io::SerializationError("cannot open '" + path + "' for reading");
  return load(in);
}

ProfileModel train_profile(const SnapshotBatch& batch, std::span<const LeakScenario> scenarios,
                           const sensing::SensorSet& sensors, std::size_t elapsed_index,
                           const ProfileTrainingConfig& config) {
  ProfileModel profile;
  profile.sensors = sensors;
  profile.noise = config.noise;
  profile.include_time_feature = config.include_time_feature;
  profile.kind = config.kind;
  profile.elapsed_index = elapsed_index;
  profile.model = ml::MultiLabelModel(make_classifier_factory(config.kind));

  const auto dataset = batch.build_dataset(scenarios, sensors, elapsed_index, config.noise,
                                           config.noise_seed, config.include_time_feature);

  const auto start = std::chrono::steady_clock::now();
  profile.model.fit(dataset);
  profile.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return profile;
}

}  // namespace aqua::core
