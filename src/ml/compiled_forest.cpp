#include "ml/compiled_forest.hpp"

#include <chrono>
#include <cstddef>
#include <limits>

#include "common/error.hpp"
#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"

namespace aqua::ml {

static_assert(BinaryClassifier::kPredictTileRows == CompiledForest::kTileRows,
              "batched predictors and the compiled kernel must agree on the tile width");

namespace {

/// Nodes or leaves one tree may hold: local references 0..32767 and
/// ~0..~32767 must fit the int16 child fields.
constexpr std::size_t kMaxPerTree = std::size_t{1} << 15;

}  // namespace

void CompiledForest::clear() {
  nodes_.clear();
  leaf_value_.clear();
  trees_.clear();
  compile_seconds_ = 0.0;
}

void CompiledForest::compile(std::span<const RegressionTree> trees, double leaf_scale) {
  static_assert(sizeof(Node) == 16 && sizeof(Tree) == 12, "record sizes DESIGN.md §14 states");
  const auto start = std::chrono::steady_clock::now();
  clear();
  if (trees.empty()) return;

  // A fitted binary tree of n nodes has n / 2 internal ones (n odd) and
  // one leaf more, so every array is sized once.
  std::size_t internal_total = 0;
  for (const RegressionTree& tree : trees) internal_total += tree.node_count() / 2;
  nodes_.reserve(internal_total);
  leaf_value_.reserve(internal_total + trees.size());
  trees_.reserve(trees.size());
  std::vector<std::int32_t> local;  // tree node index -> tree-local reference
  for (const RegressionTree& tree : trees) {
    if (!tree.fitted()) {
      clear();
      return;
    }
    // Pass 1: number internal nodes and leaves in storage order (the
    // fitters' pre-order, so the root is node 0) and push the leaves'
    // scaled values.
    const std::size_t node_base = nodes_.size();
    const std::size_t leaf_base = leaf_value_.size();
    local.resize(tree.node_count());
    std::size_t internal = 0;
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const RegressionTree::NodeView node = tree.node_view(i);
      if (node.feature >= 0) {
        local[i] = static_cast<std::int32_t>(internal++);
      } else {
        local[i] = ~static_cast<std::int32_t>(leaves++);
        leaf_value_.push_back(leaf_scale * node.value);
      }
    }
    if (internal > kMaxPerTree || leaves > kMaxPerTree) {
      clear();  // child references too narrow — callers keep the pointer walk
      return;
    }

    // Pass 2: one record per internal node, in the same order.
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const RegressionTree::NodeView node = tree.node_view(i);
      if (node.feature < 0) continue;
      nodes_.push_back({node.threshold,
                        {static_cast<std::int16_t>(local[static_cast<std::size_t>(node.left)]),
                         static_cast<std::int16_t>(local[static_cast<std::size_t>(node.right)])},
                        static_cast<std::uint32_t>(node.feature)});
    }
    // A single-leaf tree points its base at node 0: its lockstep lane
    // re-reads that record while the rest of its group walks, so the
    // base must stay in range.
    trees_.push_back({static_cast<std::uint32_t>(internal > 0 ? node_base : 0),
                      static_cast<std::uint32_t>(leaf_base), local[0]});
  }

  // The uint32 tree bases must be able to address every node and leaf.
  const auto limit = static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max());
  if (nodes_.size() > limit || leaf_value_.size() > limit) {
    clear();
    return;
  }

  compile_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

ForestCompileReport CompiledForest::report() const {
  ForestCompileReport r;
  if (!compiled()) return r;
  r.classifiers = 1;
  r.trees = num_trees();
  r.internal_nodes = num_internal_nodes();
  r.leaves = num_leaves();
  r.seconds = compile_seconds_;
  return r;
}

// Groups of kLockstepTrees trees advance together: each step moves every
// lane of the group one level, with a lane already on its leaf re-reading
// its root (index max(c, 0)) and keeping its leaf through the select, so
// the step neither branches on a compare nor on a lane's state. The AND of
// the new cursors is taken inside the step, so the loop test needs no
// reload of the cursors just stored. The leaf adds then run in ensemble
// order, which keeps every sum bit the pointer walk's. The child index is
// the compare's negation, not a ?: over two fields, so the compiler emits
// setcc plus an indexed load instead of a conditional jump on the
// threshold compare.
double CompiledForest::accumulate_row(const double* x, double sum) const {
  constexpr std::size_t kLanes = kLockstepTrees;
  const Node* nodes = nodes_.data();
  const double* leaves = leaf_value_.data();
  const std::size_t num_trees = trees_.size();
  std::size_t t = 0;
  for (; t + kLanes <= num_trees; t += kLanes) {
    const Tree* group = trees_.data() + t;
    std::int32_t cur[kLanes];
    std::int32_t all = -1;  // sign set once every lane holds a leaf
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kLanes; ++k) {
      cur[k] = group[k].root;
      all &= cur[k];
    }
    while (all >= 0) {
      all = -1;
#pragma GCC unroll 8
      for (std::size_t k = 0; k < kLanes; ++k) {
        const std::int32_t c = cur[k];
        const Node& n = nodes[group[k].nodes + static_cast<std::uint32_t>(c & ~(c >> 31))];
        const std::int32_t next = n.child[!(x[n.feature] <= n.threshold)];
        cur[k] = c < 0 ? c : next;
        all &= cur[k];
      }
    }
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kLanes; ++k) sum += leaves[group[k].leaves + ~cur[k]];
  }
  for (; t < num_trees; ++t) {
    const Tree& tree = trees_[t];
    std::int32_t c = tree.root;
    while (c >= 0) {
      const Node& n = nodes[tree.nodes + static_cast<std::uint32_t>(c)];
      c = n.child[!(x[n.feature] <= n.threshold)];
    }
    sum += leaves[tree.leaves + ~c];
  }
  return sum;
}

void CompiledForest::accumulate_tile(const double* const* rows, std::size_t count,
                                     double* acc) const {
  AQUA_REQUIRE(compiled(), "accumulate on an uncompiled forest");
  AQUA_REQUIRE(count <= kTileRows, "tile exceeds kTileRows");
  for (std::size_t i = 0; i < count; ++i) acc[i] = accumulate_row(rows[i], acc[i]);
}

double CompiledForest::accumulate(std::span<const double> x, double init) const {
  const double* row = x.data();
  double acc = init;
  accumulate_tile(&row, 1, &acc);
  return acc;
}

}  // namespace aqua::ml
