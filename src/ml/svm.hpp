// Support Vector Machine classifier. The decision function is a linear
// SVM (hinge loss, Pegasos-style SGD via the shared Adam core) over an
// optional Random Fourier Feature map that approximates the RBF kernel —
// giving the nonlinearity of kernel SVM at linear cost, which matters when
// fitting one classifier per junction. Probabilities come from Platt
// scaling (a sigmoid fitted to the decision values).
#pragma once

#include <memory>

#include "ml/classifier.hpp"
#include "ml/linear_models.hpp"

namespace aqua::ml {

struct SvmConfig {
  SgdConfig sgd{.epochs = 40, .batch_size = 64, .learning_rate = 0.02, .l2 = 1e-3, .seed = 37};
  /// Random Fourier Features for RBF approximation; 0 = plain linear SVM.
  std::size_t rff_dimension = 96;
  /// RBF bandwidth gamma; <= 0 selects 1 / num_features ("scale"-like).
  double rff_gamma = -1.0;
  std::uint64_t seed = 41;
};

/// The SVM's feature pipeline: input scaler -> random Fourier features
/// z(x) = sqrt(2/D) cos(W x + b) -> decision-space scaler (without RFF,
/// only the decision-space scaler). It depends on the training matrix and
/// the map half of SvmConfig (rff_dimension, rff_gamma, seed), never on a
/// label, so MultiLabelModel fits one per profile and hands it to every
/// label through the fit store; each SvmClassifier holds it by
/// shared_ptr<const>, and the model payload writes it once. Immutable
/// after fit/load, so every member is reentrant.
class SvmFeatureMap {
 public:
  /// Fits the map on x and writes x's rows through it into `features`
  /// (the matrix the SGD trains on).
  static std::shared_ptr<const SvmFeatureMap> fit(const Matrix& x, const SvmConfig& config,
                                                  Matrix& features);

  /// Input width the map was fitted on.
  std::size_t input_dimension() const noexcept {
    return rff_dimension() > 0 ? input_scaler_.mean().size() : dimension();
  }
  /// Output width: the RFF dimension, or the input width without RFF.
  std::size_t dimension() const noexcept { return decision_scaler_.mean().size(); }
  /// Number of random Fourier features (0 for a plain linear SVM).
  std::size_t rff_dimension() const noexcept { return rff_offsets_.size(); }

  /// x through the whole map into ws.mapped; clobbers ws.scratch and
  /// ws.scratch2. Allocation-free once the buffers are warm.
  void map_into(std::span<const double> x, PredictWorkspace& ws) const;

  void save(io::BinaryWriter& writer) const;
  /// Reads a map written by save() and checks its shapes (input-scaler
  /// width = weight columns; offsets, weight rows and decision-scaler
  /// width agree), so no loaded map can index past its own buffers.
  /// Throws io::SerializationError.
  static std::shared_ptr<const SvmFeatureMap> load(io::BinaryReader& reader);

 private:
  StandardScaler input_scaler_;     // d (unfitted without RFF)
  Matrix rff_weights_;              // D x d
  std::vector<double> rff_offsets_;  // D
  StandardScaler decision_scaler_;  // D (d without RFF)
};

class SvmClassifier final : public BinaryClassifier {
 public:
  explicit SvmClassifier(SvmConfig config = {});

  /// Trains on, and keeps, the store's feature map.
  const SvmConfig* fit_store_svm_map() const override { return &config_; }
  /// One label's fit through the store's feature map (fit()'s
  /// preconditions hold); also returns the training rows' decision
  /// values, from which HybridRSL takes its stacked column as
  /// probability(decision).
  std::vector<double> fit_decisions(const Matrix& x, const Labels& y, const FitStore& store);

  double predict_proba(std::span<const double> x) const override;
  /// The feature map's input width, exact.
  InputWidth input_width() const override { return {map_->input_dimension(), true}; }
  /// Shared-input-map protocol: the map is the whole SvmFeatureMap; only
  /// w, b and the Platt sigmoid are per-label. Hoisting it is the
  /// dominant batched-inference win: the RFF map (D x d multiplies + D
  /// cosines) runs once per snapshot instead of once per label. Labels
  /// share a map when they hold the same SvmFeatureMap object.
  bool accepts_input_map(const BinaryClassifier& owner) const override;
  void map_input(std::span<const double> x, PredictWorkspace& ws) const override;
  double predict_proba_mapped(std::span<const double> mapped) const override;
  /// Raw (pre-Platt) decision value, exposed for tests.
  double decision_value(std::span<const double> x) const;
  /// The Platt sigmoid of a decision value.
  double probability(double decision) const { return sigmoid(platt_a_ * decision + platt_b_); }
  /// The fitted feature map (null before fit/load).
  const std::shared_ptr<const SvmFeatureMap>& feature_map() const noexcept { return map_; }
  const SvmConfig& config() const noexcept { return config_; }
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "SVM"; }
  void save_state(io::BinaryWriter& writer) const override;
  /// Takes `svm_map` as its feature map; throws io::SerializationError
  /// when it is null or does not fit the state's weights.
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;
  void fit_platt(const std::vector<double>& decision, const Labels& y);

  SvmConfig config_;
  detail::LinearModelCore core_;
  std::shared_ptr<const SvmFeatureMap> map_;
  double platt_a_ = -1.0;
  double platt_b_ = 0.0;
};

}  // namespace aqua::ml
