// Random Forest classifier: bootstrap-aggregated regression trees on 0/1
// targets with balanced class weights; the averaged leaf means are the
// leak probability. One of the two strong base learners in HybridRSL —
// the paper found "RF and SVM remain robust with decreasing number of IoT
// sensors" (Sec. IV-A).
#pragma once

#include "ml/classifier.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/decision_tree.hpp"

namespace aqua::ml {

struct RandomForestConfig {
  std::size_t num_trees = 40;
  std::size_t max_depth = 12;
  std::size_t min_samples_leaf = 1;
  /// 0 = use max_features_fraction; otherwise an absolute count.
  std::size_t max_features = 0;
  /// Fraction of features per split when max_features == 0; leak signals
  /// are sparse (a few near-leak sensors carry it), so a larger mtry than
  /// the classic sqrt(d) is needed to find them. <= 0 falls back to
  /// sqrt(d).
  double max_features_fraction = 0.25;
  std::uint64_t seed = 29;
  /// Quantile-bin budget of the histogram split search (2..255).
  std::size_t max_bins = 64;
};

class RandomForestClassifier final : public BinaryClassifier {
 public:
  explicit RandomForestClassifier(RandomForestConfig config = {});

  double predict_proba(std::span<const double> x) const override;
  InputWidth input_width() const override;
  /// Compiled traversal over the whole tile (bit-identical to the
  /// per-row pointer walk); falls back to the base per-row loop when the
  /// ensemble did not compile.
  void predict_proba_mapped_tile(const double* const* rows, std::size_t count, std::size_t dim,
                                 double* out, std::size_t stride) const override;
  const CompiledForest* compiled_forest() const override {
    return compiled_.compiled() ? &compiled_ : nullptr;
  }
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "RF"; }
  void save_state(io::BinaryWriter& writer) const override;
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;

  /// Trains through the store's binning at max_bins.
  std::size_t fit_store_bins() const override { return config_.max_bins; }

  const RandomForestConfig& config() const noexcept { return config_; }
  std::size_t num_trees() const noexcept { return trees_.size(); }

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;

  RandomForestConfig config_;
  std::vector<RegressionTree> trees_;
  /// Compiled flattening of trees_, rebuilt after every fit/load (derived
  /// state, never serialized). The pointer-walking predict_proba stays
  /// the oracle.
  CompiledForest compiled_;
};

}  // namespace aqua::ml
