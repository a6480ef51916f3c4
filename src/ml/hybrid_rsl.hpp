// HybridRSL — the paper's proposed technique (Sec. IV-A, Fig. 4): "a
// combination of RF and SVM via LogisticR ... the same dataset is trained
// and predicted by RF and SVM separately, and their predicted results,
// i.e. leak probabilities for each node, are then aggregated as a new
// feature set and input into LogisticR for further learning."
#pragma once

#include "ml/classifier.hpp"
#include "ml/linear_models.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace aqua::ml {

struct HybridRslConfig {
  RandomForestConfig forest;
  SvmConfig svm;
  SgdConfig meta{.epochs = 60, .batch_size = 64, .learning_rate = 0.05, .l2 = 1e-4, .seed = 43};
};

class HybridRslClassifier final : public BinaryClassifier {
 public:
  explicit HybridRslClassifier(HybridRslConfig config = {});

  double predict_proba(std::span<const double> x) const override;
  /// The SVM branch standardizes the whole row and the forest branch
  /// reads its prefix, so the row must be the SVM's width and cover the
  /// forest's splits.
  InputWidth input_width() const override;
  /// Shared-input-map protocol: the map is [x | svm-map(x)] — raw
  /// features for the forest branch, the inner SVM's SvmFeatureMap (one
  /// object shared by every label, see SvmClassifier) for the SVM branch.
  /// Heads run the per-label trees, linear SVM weights and meta logistic
  /// on the shared buffer.
  bool accepts_input_map(const BinaryClassifier& owner) const override;
  void map_input(std::span<const double> x, PredictWorkspace& ws) const override;
  double predict_proba_mapped(std::span<const double> mapped) const override;
  /// Tile path: the forest branch runs the inner RF's compiled kernel
  /// over the whole tile; the SVM and meta heads stay per-row.
  void predict_proba_mapped_tile(const double* const* rows, std::size_t count, std::size_t dim,
                                 double* out, std::size_t stride) const override;
  const CompiledForest* compiled_forest() const override { return forest_.compiled_forest(); }
  /// Fit-store protocol: the binned store feeds the forest branch and the
  /// SVM feature map the SVM branch; the meta stage trains on their
  /// per-label outputs.
  std::size_t fit_store_bins() const override { return forest_.fit_store_bins(); }
  const SvmConfig* fit_store_svm_map() const override { return svm_.fit_store_svm_map(); }
  std::unique_ptr<BinaryClassifier> clone_config() const override;
  std::string name() const override { return "HybridRSL"; }
  /// The members' states, each with its own hyper-parameters; the
  /// hybrid's configuration is theirs, so it is written once.
  void save_state(io::BinaryWriter& writer) const override;
  void load_state(io::BinaryReader& reader,
                  const std::shared_ptr<const SvmFeatureMap>& svm_map) override;

  const RandomForestClassifier& forest() const noexcept { return forest_; }
  const SvmClassifier& svm() const noexcept { return svm_; }

 private:
  void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) override;

  RandomForestClassifier forest_;
  SvmClassifier svm_;
  LogisticRegressionClassifier meta_;
};

}  // namespace aqua::ml
