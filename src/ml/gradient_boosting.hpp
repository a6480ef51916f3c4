// Gradient Boosting classifier: shallow regression trees fitted to the
// pseudo-residuals of the logistic loss, with Newton leaf values
// (Friedman's GBM as implemented by scikit-learn, the paper's "GB").
#pragma once

#include "ml/classifier.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/decision_tree.hpp"

namespace aqua::ml {

struct GradientBoostingConfig {
  std::size_t num_rounds = 60;
  double learning_rate = 0.15;
  std::size_t max_depth = 3;
  std::size_t min_samples_leaf = 4;
  /// Row subsampling per round (stochastic gradient boosting).
  double subsample = 0.8;
  std::uint64_t seed = 31;
  /// Quantile-bin budget of the histogram split search (2..255).
  std::size_t max_bins = 64;
};

class GradientBoostingClassifier final : public BinaryClassifier {
 public:
  explicit GradientBoostingClassifier(GradientBoostingConfig config = {});

  double predict_proba(std::span<const double> x) const override;
  InputWidth input_width() const override;
  /// Compiled traversal over the whole tile (bit-identical to the
  /// per-row pointer walk): the learning rate is baked into the leaf
  /// plane at compile time, so accumulation replays score += lr * leaf
  /// in round order exactly.
  void predict_proba_mapped_tile(const double* const* rows, std::size_t count, std::size_t dim,
                                 double* out, std::size_t stride) const override;
  const CompiledForest* compiled_forest() const override {
    return compiled_.compiled() ? &compiled_ : nullptr;
  }
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "GB"; }
  void save_state(io::BinaryWriter& writer) const override;
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;

  /// Trains through the store's binning at max_bins.
  std::size_t fit_store_bins() const override { return config_.max_bins; }

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;

  GradientBoostingConfig config_;
  std::vector<RegressionTree> trees_;
  /// Compiled flattening of trees_ (leaf values pre-scaled by learning_rate),
  /// rebuilt after every fit/load; derived state, never serialized.
  CompiledForest compiled_;
  double base_score_ = 0.0;  // initial log-odds
};

}  // namespace aqua::ml
