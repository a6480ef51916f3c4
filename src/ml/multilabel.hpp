// The multi-label profile model f = {f_v : v ∈ V} (Algorithm 1): one
// independently trained binary classifier of one kind per candidate leak
// node (a constant for a node whose training labels are single-class),
// all sharing the same feature vector. Training is embarrassingly
// parallel and runs on the process thread pool.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ml/classifier.hpp"
#include "ml/compiled_forest.hpp"

namespace aqua::ml {

/// Factory for fresh per-label classifiers (the "plug" in plug-and-play).
using ClassifierFactory = std::function<std::unique_ptr<BinaryClassifier>()>;

class MultiLabelModel {
 public:
  /// Default-constructed models must receive a factory before fit().
  MultiLabelModel() = default;

  /// `factory` supplies the profile's classifier kind; must be callable.
  explicit MultiLabelModel(ClassifierFactory factory);

  /// Algorithm 1: for v in V do f_v.fit(T, X, Y_v).
  ///
  /// The model owns what a profile shares across labels:
  ///   - One kind: the factory is called once per fit, and every fitted
  ///     label is a clone_config() of that prototype.
  ///   - Single-class labels: a label whose positive rate is 0 or 1 (a
  ///     node that never, or always, leaks in the training set) is a
  ///     constant label that stores the rate and holds no classifier.
  ///   - The fit store: the matrix-only fit state (the prototype's
  ///     quantile binning and SVM feature map, make_fit_store) is computed
  ///     once and shared read-only across labels; every label keeps the
  ///     one map, so the fitted model holds one.
  /// Bit-identical to fitting each label's classifier on its own with
  /// BinaryClassifier::fit.
  void fit(const MultiLabelDataset& data, bool parallel = true);

  std::size_t num_labels() const noexcept { return classifiers_.size(); }
  bool fitted() const noexcept { return !classifiers_.empty(); }
  /// The kind tag of the profile's classifiers (BinaryClassifier::name()),
  /// empty before fit/load.
  const std::string& kind() const noexcept { return kind_; }

  /// predict_proba: per-label P(y_v = 1 | x).
  std::vector<double> predict_proba(std::span<const double> x) const;

  /// predict: the leak set S = {v : p_v(1) > p_v(0)} as a 0/1 vector.
  Labels predict(std::span<const double> x) const;

  /// Batched predict_proba over stacked feature rows: `out` becomes
  /// rows x num_labels. Every fitted label accepts the first fitted
  /// label's input map (one prototype and one store make it so after fit,
  /// and load checks it; see BinaryClassifier's shared-input-map
  /// protocol), so the map is computed once per row and
  /// the rows advance through the per-label heads a tile at a time
  /// (kPredictTileRows rows per tile), so tree-backed heads run their
  /// compiled traversal kernel — bit-identical to per-row predict_proba,
  /// since sharing and tiling only elide recomputation of bitwise-equal
  /// subexpressions. Reentrant: safe to call concurrently on a fitted
  /// model.
  void predict_proba_batch_into(const Matrix& x, Matrix& out, bool parallel = true) const;

  /// Aggregate compiled-forest statistics over every label's classifier
  /// (zero report for tree-less models). ModelBundle captures this at
  /// load so the serving daemon can export forest.compile_seconds /
  /// forest.compiled_trees per district.
  ForestCompileReport forest_compile_report() const;

  /// The label's classifier, or nullptr for a constant label.
  const BinaryClassifier* classifier(std::size_t label) const;

  /// Serializes the model: the kind tag once, the profile's SVM feature
  /// map (or none), then per label its constant rate or its classifier
  /// state. A loaded model predicts bit-identically and can be refit (the
  /// factory is rebuilt from the first fitted label's configuration).
  void save(io::BinaryWriter& writer) const;
  /// Throws io::SerializationError on malformed input, including fitted
  /// labels that do not accept the first fitted label's input map.
  static MultiLabelModel load(io::BinaryReader& reader);

 private:
  /// The first fitted label's classifier, which owns the shared input
  /// map; nullptr when every label is constant.
  const BinaryClassifier* map_owner() const noexcept;

  ClassifierFactory factory_;
  std::string kind_;
  std::vector<std::unique_ptr<BinaryClassifier>> classifiers_;  // null: constant label
  std::vector<double> constant_;  // a constant label's rate, 0 or 1 (unused when fitted)
  std::shared_ptr<const SvmFeatureMap> svm_map_;  // the profile's one map, or null
};

}  // namespace aqua::ml
