// CART regression trees with sample weights — the shared building block of
// Random Forest (bagged trees on binary targets, whose leaf means are leak
// probabilities) and Gradient Boosting (shallow trees on pseudo-residuals
// with Newton leaf values).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "ml/binning.hpp"

namespace aqua::io {
class BinaryWriter;
class BinaryReader;
}  // namespace aqua::io

namespace aqua::ml {

// 64-byte-aligned allocator for histogram buffers (defined in the .cpp):
// cells are SIMD lanes, and a 64-aligned base keeps every cell inside one
// cache line.
template <typename T>
struct HistAllocator;
using HistVec = std::vector<double, HistAllocator<double>>;
// A node's histogram buffers (double cells + uint32 count plane).
struct TreeHist;

struct TreeConfig {
  std::size_t max_depth = 10;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Features considered per split; 0 = all (RF passes ~sqrt(d)).
  std::size_t max_features = 0;
  std::uint64_t seed = 17;
};

/// Weighted least-squares regression tree. On 0/1 targets the weighted
/// SSE criterion is equivalent to weighted Gini impurity, so the same tree
/// serves as a probability-outputting classification tree.
class RegressionTree {
 public:
  explicit RegressionTree(TreeConfig config = {}) : config_(config) {}

  /// Exact sorted-feature CART: every midpoint between distinct values is
  /// a candidate threshold. This is the test oracle the histogram kernel
  /// below is checked against; no ensemble trains through it.
  ///
  /// Fits on rows `sample_indices` of x (empty = all rows). `weights` may
  /// be empty (all 1). `hessians`, when provided, switches leaf values to
  /// the Newton estimate sum(w*target) / sum(w*hessian) used by gradient
  /// boosting with logistic loss.
  void fit(const linalg::Matrix& x, std::span<const double> targets,
           std::span<const double> weights = {}, std::span<const std::size_t> sample_indices = {},
           std::span<const double> hessians = {});

  /// Column-block histogram fit over a shared BinnedDataset — the kernel
  /// every ensemble trains through. Per node it streams each candidate
  /// feature's contiguous code column into a bin histogram (per-row
  /// (w, w*y, w*y*y) stats are precomputed once and kept in partition
  /// order), derives the larger child's histograms from the parent's by
  /// subtraction when every feature is a candidate, and fans the
  /// per-feature build+scan over the global ThreadPool with a fixed
  /// reduction order, so the result is bit-identical however many
  /// threads run.
  ///
  /// `leaf_of_row`, when non-null, is resized to the store's row count
  /// and filled with the leaf node index of every row — including rows
  /// outside `sample_indices`, which are routed through the fitted
  /// splits on their bin codes. leaf_value(leaf_of_row[i]) equals
  /// predict(row i) exactly, letting gradient boosting update per-round
  /// scores without re-traversing the tree per row.
  void fit_binned(const BinnedDataset& store, std::span<const double> targets,
                  std::span<const double> weights = {},
                  std::span<const std::size_t> sample_indices = {},
                  std::span<const double> hessians = {},
                  std::vector<std::int32_t>* leaf_of_row = nullptr);

  double predict(std::span<const double> x) const;

  /// Output value of a leaf node (pairs with fit_binned's leaf_of_row).
  double leaf_value(std::size_t node) const { return nodes_[node].value; }

  /// Read-only view of one stored node, for the compiled-kernel
  /// flattener (ml/compiled_forest.hpp) and structural tests. Leaves
  /// report feature < 0.
  struct NodeView {
    int feature;
    double threshold;
    double value;
    int left;
    int right;
  };
  NodeView node_view(std::size_t i) const {
    const Node& n = nodes_[i];
    return {n.feature, n.threshold, n.value, n.left, n.right};
  }

  bool fitted() const noexcept { return !nodes_.empty(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept;
  /// Largest split feature + 1 (0 for a single leaf): the row width
  /// predict() reads.
  std::size_t input_width() const noexcept;

  /// Bytes of the smallest serialized tree (five config words and the
  /// node count): the bound ensemble loaders put on a tree count.
  static constexpr std::size_t kMinSerializedBytes = 48;

  void save(io::BinaryWriter& writer) const;
  void load(io::BinaryReader& reader);

 private:
  struct Node {
    int feature = -1;         // -1 = leaf
    double threshold = 0.0;   // go left if x[feature] <= threshold
    double value = 0.0;       // leaf output
    int left = -1;
    int right = -1;
  };

  struct BuildContext;
  int build(BuildContext& ctx, std::vector<std::size_t>& indices, std::size_t begin,
            std::size_t end, std::size_t depth, Rng& rng);

  struct StoreContext;
  struct NodeTotals;
  // `hist` is this node's histogram buffer (empty = build it here); the
  // buffer's ownership moves down the recursion and back into the pool.
  int build_store(StoreContext& ctx, std::size_t begin, std::size_t end, std::size_t depth,
                  const NodeTotals& totals, TreeHist hist, Rng& rng);

  TreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace aqua::ml
