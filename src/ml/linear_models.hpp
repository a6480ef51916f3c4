// Linear family: ridge Linear Regression and Logistic Regression, both
// trained with deterministic mini-batch Adam over standardized features
// with balanced class weights. They share a common SGD core with the
// linear SVM (hinge loss) in svm.hpp.
#pragma once

#include "ml/classifier.hpp"

namespace aqua::ml {

struct SgdConfig {
  std::size_t epochs = 40;
  std::size_t batch_size = 64;
  double learning_rate = 0.02;
  double l2 = 1e-4;
  std::uint64_t seed = 13;
};

namespace detail {

enum class LinearLoss { kSquared, kLogistic, kHinge };

/// Shared Adam-trained linear model. Fits w, b on standardized inputs;
/// `decision()` is w.x + b. Its state carries the loss and the SGD
/// configuration, so a classifier built on it persists both once.
class LinearModelCore {
 public:
  LinearModelCore(LinearLoss loss, SgdConfig config) : loss_(loss), config_(config) {}

  /// Fits this core's scaler on x, then trains on the standardized rows.
  void fit(const Matrix& x, const Labels& y);
  /// Trains on rows an outside scaler already standardized (the SVM's
  /// shared feature map); this core's own scaler stays unfitted, so only
  /// decision_pretransformed() applies.
  void fit_standardized(const Matrix& xs, const Labels& y);
  double decision(std::span<const double> x) const;
  /// decision() on features already standardized by this core's scaler
  /// (shared-input-map fast path): bias + w.xs, no transform, no alloc.
  double decision_pretransformed(std::span<const double> xs) const;
  const SgdConfig& config() const noexcept { return config_; }
  const std::vector<double>& weights() const noexcept { return weights_; }
  const StandardScaler& scaler() const noexcept { return scaler_; }
  /// The scaler's width, exact.
  BinaryClassifier::InputWidth input_width() const noexcept {
    return {scaler_.mean().size(), true};
  }

  void save(io::BinaryWriter& writer) const;
  /// Restores a state of this core's loss; throws io::SerializationError
  /// for another loss tag.
  void load(io::BinaryReader& reader);

 private:
  /// Adam over standardized rows.
  void train(const Matrix& xs, const Labels& y);

  LinearLoss loss_;
  SgdConfig config_;
  StandardScaler scaler_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace detail

/// Ridge linear regression on 0/1 targets; predict_proba clamps the
/// regression output to [0, 1] (the paper uses LinearR as one of the
/// plug-and-play baselines). Default optimizer settings differ from the
/// logistic ones: the unbounded MSE objective on hundreds of correlated
/// Δ-features needs a gentler learning rate and more epochs to converge
/// instead of oscillating.
class LinearRegressionClassifier final : public BinaryClassifier {
 public:
  explicit LinearRegressionClassifier(
      SgdConfig config = {.epochs = 150, .batch_size = 64, .learning_rate = 0.004, .l2 = 1e-4,
                          .seed = 13});
  double predict_proba(std::span<const double> x) const override;
  InputWidth input_width() const override { return core_.input_width(); }
  bool accepts_input_map(const BinaryClassifier& owner) const override;
  void map_input(std::span<const double> x, PredictWorkspace& ws) const override;
  double predict_proba_mapped(std::span<const double> mapped) const override;
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "LinearR"; }
  void save_state(io::BinaryWriter& writer) const override;
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;
  const detail::LinearModelCore& core() const noexcept { return core_; }

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;

  detail::LinearModelCore core_;
};

/// L2-regularized logistic regression.
class LogisticRegressionClassifier final : public BinaryClassifier {
 public:
  explicit LogisticRegressionClassifier(SgdConfig config = {});
  double predict_proba(std::span<const double> x) const override;
  InputWidth input_width() const override { return core_.input_width(); }
  bool accepts_input_map(const BinaryClassifier& owner) const override;
  void map_input(std::span<const double> x, PredictWorkspace& ws) const override;
  double predict_proba_mapped(std::span<const double> mapped) const override;
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "LogisticR"; }
  void save_state(io::BinaryWriter& writer) const override;
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;
  const detail::LinearModelCore& core() const noexcept { return core_; }

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;

  detail::LinearModelCore core_;
};

/// Numerically safe sigmoid.
double sigmoid(double z) noexcept;

/// SgdConfig framing shared by every classifier that embeds one.
void write_sgd_config(io::BinaryWriter& writer, const SgdConfig& config);
SgdConfig read_sgd_config(io::BinaryReader& reader);

}  // namespace aqua::ml
