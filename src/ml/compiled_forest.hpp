// Compiled forest-inference kernel. A fitted tree ensemble (the trees of
// RandomForest, GradientBoosting, or the forest inside HybridRSL) walks
// heap-allocated 40-byte Node objects pointer by pointer at prediction
// time. CompiledForest flattens every ensemble once at fit/load time into
// 16-byte node records (the original double threshold, two tree-local
// int16 child references and the feature index), a pre-scaled leaf plane,
// and one small record per tree holding its node and leaf bases.
//
// The kernel walks each row through the trees in ensemble-order groups of
// kLockstepTrees: the group's cursors advance together with the
// branchless step `child[!(x[feature] <= threshold)]` until every one of
// them sits on a leaf, so the eight independent load chains overlap and
// no step branches on a compare. Trees past the last full group are
// walked one at a time.
//
// Bit-identity contract: traversal decisions are the exact IEEE compare
// `x[feature] <= threshold` on the original double threshold (NaN and
// +Inf go right at every node, as in the pointer walk), the leaf payload
// is `leaf_scale * value` computed once at compile time (the same product
// the pointer walk computes per visit), and each row adds its tree
// contributions in ensemble order — so every compiled prediction is
// bitwise equal to the pointer-walking oracle it was flattened from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace aqua::ml {

class RegressionTree;

/// Aggregate compile statistics (per classifier or summed per model),
/// surfaced through MultiLabelModel / InferenceEngine / ModelBundle so
/// the serving daemon can export forest.compile_seconds and
/// forest.compiled_trees per district.
struct ForestCompileReport {
  std::size_t classifiers = 0;  ///< classifiers holding a compiled ensemble
  std::size_t trees = 0;
  std::size_t internal_nodes = 0;
  std::size_t leaves = 0;
  double seconds = 0.0;
};

class CompiledForest {
 public:
  /// Rows per accumulate_tile() call, the width the batched predictors
  /// hand down (BinaryClassifier::kPredictTileRows).
  static constexpr std::size_t kTileRows = 8;

  /// Trees whose cursors one row advances together.
  static constexpr std::size_t kLockstepTrees = 8;

  CompiledForest() = default;

  /// Flattens `trees` (every tree must be fitted). `leaf_scale` is baked
  /// into the leaf plane: the pointer paths add `scale * leaf` per tree
  /// (RandomForest scale 1, GradientBoosting the learning rate), and
  /// computing that product once at compile time yields the same bits as
  /// computing it per visit. Compilation fails soft — an ensemble holding
  /// a tree of more than 32768 internal nodes or leaves (the reach of the
  /// int16 child references) stays uncompiled, and the callers keep the
  /// pointer walk.
  void compile(std::span<const RegressionTree> trees, double leaf_scale);

  void clear();

  bool compiled() const noexcept { return !trees_.empty(); }
  std::size_t num_trees() const noexcept { return trees_.size(); }
  std::size_t num_internal_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_leaves() const noexcept { return leaf_value_.size(); }
  double compile_seconds() const noexcept { return compile_seconds_; }
  ForestCompileReport report() const;

  /// Advances `count` (<= kTileRows) rows through every tree in ensemble
  /// order, adding each tree's scaled leaf value into acc[i]. Callers
  /// seed acc with the ensemble's initial score (0 for a forest mean,
  /// base_score for boosting). Reentrant: all state is immutable after
  /// compile(). Reads x[f] for every split feature f unchecked;
  /// ProfileModel::load rejects a profile whose rows are narrower than
  /// its trees read.
  void accumulate_tile(const double* const* rows, std::size_t count, double* acc) const;

  /// Single-row convenience over accumulate_tile (tests, oracles).
  double accumulate(std::span<const double> x, double init) const;

 private:
  /// One internal node. A child reference >= 0 is a node of the same
  /// tree (relative to Tree::nodes); a negative one c is the tree's leaf
  /// ~c (relative to Tree::leaves).
  struct Node {
    double threshold;       // child[0] when x[feature] <= threshold
    std::int16_t child[2];  // {left, right}
    std::uint32_t feature;
  };

  struct Tree {
    std::uint32_t nodes;   // first node record (0 for a single-leaf tree)
    std::uint32_t leaves;  // first leaf value
    std::int32_t root;     // 0, or ~0 when the root itself is a leaf
  };

  /// sum plus every tree's leaf for row x, added in ensemble order.
  double accumulate_row(const double* x, double sum) const;

  std::vector<Node> nodes_;         // per tree, in the tree's storage order
  std::vector<double> leaf_value_;  // pre-scaled by leaf_scale
  std::vector<Tree> trees_;
  double compile_seconds_ = 0.0;
};

}  // namespace aqua::ml
