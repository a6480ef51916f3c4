// The multi-label profile model f = {f_v : v ∈ V} (Algorithm 1): one
// independently trained binary classifier per candidate leak node, all
// sharing the same feature vector. Training is embarrassingly parallel and
// runs on the process thread pool.
#pragma once

#include <functional>
#include <memory>

#include "ml/classifier.hpp"
#include "ml/compiled_forest.hpp"

namespace aqua::ml {

/// Factory for fresh per-label classifiers (the "plug" in plug-and-play).
using ClassifierFactory = std::function<std::unique_ptr<BinaryClassifier>()>;

class MultiLabelModel {
 public:
  /// Default-constructed models must receive a factory before fit().
  MultiLabelModel() = default;

  /// `factory` supplies fresh per-label classifiers; must be callable.
  explicit MultiLabelModel(ClassifierFactory factory);

  /// Algorithm 1: for v in V do f_v.fit(T, X, Y_v).
  ///
  /// All labels train on the same feature matrix, so the matrix-only fit
  /// state is computed once here and shared read-only across labels (see
  /// BinaryClassifier's shared-store protocol): the quantile binning when
  /// every label agrees on one bin budget (fit_store_bins()), and the SVM
  /// feature map when every label agrees on one map (fit_store_svm_map()),
  /// which every label then keeps, so the fitted model holds one map.
  /// Bit-identical to fitting each label's classifier on its own with
  /// BinaryClassifier::fit.
  void fit(const MultiLabelDataset& data, bool parallel = true);

  std::size_t num_labels() const noexcept { return classifiers_.size(); }
  bool fitted() const noexcept { return !classifiers_.empty(); }

  /// predict_proba: per-label P(y_v = 1 | x).
  std::vector<double> predict_proba(std::span<const double> x) const;

  /// predict: the leak set S = {v : p_v(1) > p_v(0)} as a 0/1 vector.
  Labels predict(std::span<const double> x) const;

  /// Batched predict_proba over stacked feature rows: `out` becomes
  /// rows x num_labels. When every label accepts one classifier's input
  /// map (detected once after fit/load; see BinaryClassifier's shared-
  /// input-map protocol), the map is computed once per row and the rows
  /// advance through the per-label heads a tile at a time
  /// (kPredictTileRows rows per tile), so tree-backed heads run their
  /// compiled traversal kernel — bit-identical to per-row predict_proba,
  /// since sharing and tiling only elide recomputation of bitwise-equal
  /// subexpressions.
  /// Otherwise falls back to a label-major sweep (per-label model state
  /// stays cache-hot across the whole batch). Reentrant: safe to call
  /// concurrently on a fitted model.
  void predict_proba_batch_into(const Matrix& x, Matrix& out, bool parallel = true) const;

  /// Aggregate compiled-forest statistics over every label's classifier
  /// (zero report for tree-less models). ModelBundle captures this at
  /// load so the serving daemon can export forest.compile_seconds /
  /// forest.compiled_trees per district.
  ForestCompileReport forest_compile_report() const;

  /// True when batched prediction hoists a shared input map.
  bool has_shared_input_map() const noexcept { return shared_map_owner_ != kNoSharedMap; }

  const BinaryClassifier& classifier(std::size_t label) const;

  /// Serializes every per-label classifier (kind tag + state). A loaded
  /// model predicts bit-identically and can be refit (the factory is
  /// rebuilt from the first classifier's configuration).
  void save(io::BinaryWriter& writer) const;
  static MultiLabelModel load(io::BinaryReader& reader);

 private:
  static constexpr std::size_t kNoSharedMap = static_cast<std::size_t>(-1);

  /// Scans for a classifier whose input map every label accepts; caching
  /// the owner index here keeps engine construction and batch calls free
  /// of the O(labels^2) bitwise state comparison.
  void detect_shared_input_map();

  ClassifierFactory factory_;
  std::vector<std::unique_ptr<BinaryClassifier>> classifiers_;
  std::size_t shared_map_owner_ = kNoSharedMap;
};

}  // namespace aqua::ml
