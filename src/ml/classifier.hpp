// The plug-and-play classifier abstraction. AquaSCALE's analytics engine
// "enables the selection/integration of statistical techniques" — any
// BinaryClassifier can be slotted into the per-node profile model, and the
// implementations mirror the paper's lineup: LinearR, LogisticR, GB, RF,
// SVM and the proposed HybridRSL stack.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"

namespace aqua::io {
class BinaryWriter;
class BinaryReader;
}  // namespace aqua::io

namespace aqua::ml {

class CompiledForest;
class SvmFeatureMap;
struct SvmConfig;
class BinaryClassifier;

/// Per-matrix fit state that MultiLabelModel computes once per profile and
/// hands read-only to every label's fit (see the fit-store protocol
/// below). make_fit_store() builds the members a classifier advertises;
/// the others stay empty.
struct FitStore {
  /// Quantile-binned training matrix for the tree ensembles.
  BinnedDataset bins;
  /// The SVM feature map fitted on the training matrix (null when the
  /// kind takes none), and the training rows through it: the matrix
  /// every label's SGD trains on.
  std::shared_ptr<const SvmFeatureMap> svm_map;
  Matrix svm_features;
};

/// The store `classifier` trains through on `x`: bins at its
/// fit_store_bins() budget, and the feature map of its
/// fit_store_svm_map(). MultiLabelModel::fit and BinaryClassifier::fit
/// both build their store here.
FitStore make_fit_store(const BinaryClassifier& classifier, const Matrix& x);

/// Reusable per-worker scratch for batched prediction. Holding the
/// buffers outside the classifiers keeps every const prediction path
/// allocation-free after warm-up and trivially reentrant: concurrent
/// callers each bring their own workspace.
struct PredictWorkspace {
  std::vector<double> mapped;    // shared input-map output (map_input)
  std::vector<double> scratch;   // intermediate transform buffer
  std::vector<double> scratch2;  // second intermediate (SVM map pipeline)
};

/// A probabilistic binary classifier (scikit-learn's fit / predict /
/// predict_proba contract, which Algorithms 1-2 are written against). A
/// kind implements one label's fit, its prediction heads and its state;
/// what a profile shares across labels (single-class labels, the fit
/// store, the SVM feature map) belongs to MultiLabelModel.
///
/// Thread-safety contract (audited per implementation, enforced by
/// tests/test_concurrency.cpp under -DAQUA_TSAN): every const member —
/// predict_proba, predict, map_input, predict_proba_mapped, save_state —
/// must be reentrant. Concretely: no mutable members, no lazily
/// materialized caches, no static or global state, and no RNG use at
/// prediction time (all randomness — SGD shuffling, bootstrap draws,
/// random Fourier features — is consumed during fit() and frozen into
/// plain data members or an immutable shared SvmFeatureMap). A fitted
/// classifier may therefore be shared by any number of concurrent
/// predictors without synchronization; fit() and load_state() are the
/// only mutators and require exclusive access.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Trains on (X, y) through make_fit_store(*this, x).
  void fit(const Matrix& x, const Labels& y);

  /// Trains on (X, y) through `store`, whose members must have been built
  /// on exactly `x` for this classifier (make_fit_store); each kind
  /// requires what it advertises through fit_store_bins() and
  /// fit_store_svm_map(). Requires rows of x and y to agree, a non-empty
  /// set, and both classes in y (MultiLabelModel keeps single-class
  /// labels as constants and never fits them); throws InvalidArgument
  /// otherwise.
  void fit(const Matrix& x, const Labels& y, const FitStore& store);

  /// P(y = 1 | x) in [0, 1]. Must only be called after fit().
  virtual double predict_proba(std::span<const double> x) const = 0;

  /// Hard decision: S-membership per the paper is p(1) > p(0).
  bool predict(std::span<const double> x) const { return predict_proba(x) > 0.5; }

  /// The feature-row width predict_proba() reads. Tree ensembles read
  /// only their split features, unchecked, so a row needs at least
  /// `width` (the largest split feature + 1) and may be wider; the linear
  /// kinds and the SVM standardize the whole row, so it needs exactly
  /// `width`. ProfileModel::load checks it against the profile's feature
  /// count.
  struct InputWidth {
    std::size_t width = 0;
    bool exact = false;
    bool admits(std::size_t dim) const noexcept { return exact ? dim == width : dim >= width; }
  };
  virtual InputWidth input_width() const = 0;

  // --- Shared-input-map protocol (batched prediction) -----------------
  //
  // MultiLabelModel fits one classifier per label, all cloned from one
  // prototype and fitted on the *same* feature matrix. Deterministic
  // fits therefore produce bitwise-identical input transformations across
  // labels (feature scalers), and the SVM kinds hold the profile's one
  // random-Fourier feature map outright (SvmFeatureMap, from the fit
  // store). The per-snapshot prediction loop would recompute that
  // identical map once per label. The protocol below hoists it: the
  // first fitted label computes map_input(x) per snapshot, and every
  // label's head runs predict_proba_mapped() on the shared buffer.
  // Every fitted label accepts that owner's map — bitwise-equal scaler
  // state, or the very same SvmFeatureMap object; MultiLabelModel::load
  // rejects a payload where one does not — so the hoisted path is
  // bit-identical to predict_proba by construction: it merely avoids
  // recomputing equal subexpressions.

  /// True when this classifier's predict_proba_mapped() is exact on the
  /// map produced by `owner`'s map_input(). The default, for kinds whose
  /// map is the identity, accepts an owner of the same kind; the linear
  /// kinds override with a bitwise scaler comparison, the SVM kinds with
  /// a pointer comparison of their shared SvmFeatureMap.
  virtual bool accepts_input_map(const BinaryClassifier& owner) const;

  /// Writes this classifier's input map of x into ws.mapped (identity by
  /// default). Must not allocate once ws buffers are warm.
  virtual void map_input(std::span<const double> x, PredictWorkspace& ws) const {
    ws.mapped.assign(x.begin(), x.end());
  }

  /// predict_proba() given a map produced by an accepted owner. Bitwise
  /// equal to predict_proba(x) when accepts_input_map(owner) holds.
  virtual double predict_proba_mapped(std::span<const double> mapped) const {
    return predict_proba(mapped);
  }

  // --- Blocked tile protocol (compiled forest kernels) ----------------
  //
  // The batched predictors advance a small tile of snapshots through one
  // classifier at a time, so tree-backed classifiers can run their
  // compiled traversal kernel (ml/compiled_forest.hpp) once per tile. The
  // default is the per-row loop, so classifier kinds without trees are a
  // transparent fallback.

  /// Rows per tile handed down by the batched predictors. Matches
  /// CompiledForest::kTileRows (static_assert'd in compiled_forest.cpp).
  static constexpr std::size_t kPredictTileRows = 8;

  /// Tile variant of predict_proba_mapped: rows[0..count) point at mapped
  /// inputs of identical layout and length `dim`; writes P(y=1 | rows[i])
  /// to out[i * stride]. Every output is bitwise equal to the per-row
  /// predict_proba_mapped. Batched callers never pass count >
  /// kPredictTileRows, but overrides must handle any count.
  virtual void predict_proba_mapped_tile(const double* const* rows, std::size_t count,
                                         std::size_t dim, double* out,
                                         std::size_t stride) const {
    for (std::size_t i = 0; i < count; ++i) {
      out[i * stride] = predict_proba_mapped(std::span<const double>(rows[i], dim));
    }
  }

  /// The compiled ensemble backing this classifier's tile path, or
  /// nullptr for classifier kinds without trees (or whose ensemble is
  /// unfitted or uncompilable).
  virtual const CompiledForest* compiled_forest() const { return nullptr; }

  // --- Fit-store protocol (batched training) --------------------------
  //
  // The training-side twin of the input-map protocol above. MultiLabelModel
  // fits hundreds of labels on the *same* matrix, so state that depends
  // only on the matrix is computed once into a FitStore and shared
  // read-only across every label (BinnedDataset and SvmFeatureMap are
  // immutable after fit and safe for concurrent readers):
  //   - Tree ensembles train through a quantile-binned matrix; a kind asks
  //     for one by reporting a nonzero fit_store_bins().
  //   - SVM kinds train through a label-independent random-Fourier feature
  //     map; a kind asks for one by reporting its SvmConfig from
  //     fit_store_svm_map(), and every label then trains on, and keeps,
  //     the one map.
  // Other kinds keep the defaults and take an empty store.

  /// Bin budget of the BinnedDataset this classifier trains through, or
  /// 0 when it does not consume a binned store.
  virtual std::size_t fit_store_bins() const { return 0; }

  /// The SvmConfig whose feature map this classifier trains through, or
  /// nullptr when it takes none.
  virtual const SvmConfig* fit_store_svm_map() const { return nullptr; }

  /// A fresh, untrained classifier with the same hyper-parameters (used to
  /// instantiate one copy per node label).
  virtual std::unique_ptr<BinaryClassifier> clone_config() const = 0;

  virtual std::string name() const = 0;

  /// Serializes hyper-parameters and all fitted state; a load_state() of
  /// the written bytes must reproduce bit-identical predict_proba output.
  /// The kind tag and the profile's SVM feature map are written once per
  /// model by MultiLabelModel::save, never inside a state.
  virtual void save_state(io::BinaryWriter& writer) const = 0;

  /// Restores state written by save_state(); the SVM kinds take `svm_map`
  /// (the model payload's one map, null when it has none) as their
  /// feature map. Throws io::SerializationError on malformed input.
  virtual void load_state(io::BinaryReader& reader,
                          const std::shared_ptr<const SvmFeatureMap>& svm_map) = 0;

 private:
  /// One label's fit; fit() has checked its preconditions.
  virtual void fit_checked(const Matrix& x, const Labels& y, const FitStore& store) = 0;
};

/// Balanced per-class sample weights: w_pos * n_pos == w_neg * n_neg, mean
/// weight 1. Leak labels are heavily imbalanced (a given node leaks in only
/// a few percent of scenarios), so every classifier trains with these.
std::pair<double, double> balanced_class_weights(const Labels& y);  // {w_neg, w_pos}

/// Fraction of positive labels.
double positive_rate(const Labels& y);

}  // namespace aqua::ml
