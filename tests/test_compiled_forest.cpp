// Compiled forest-kernel contract tests (DESIGN.md §14). The lockstep
// tile kernel must be bitwise identical to the pointer-walking oracle it
// was compiled from — on every lockstep remainder, single-leaf and deep
// trees, non-finite and on-threshold inputs, fresh fits, after an
// artifact round-trip through load_file(save_file(p)), through the
// shared-input-map batch path, and under concurrent tile calls on one
// shared model. The concurrency test spawns raw std::threads on purpose
// and is meaningful under TSan (label "kernel;concurrency").
#include "ml/compiled_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/aquascale.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/hybrid_rsl.hpp"
#include "ml/random_forest.hpp"

namespace aqua::ml {
namespace {

using core::ModelKind;
using core::ProfileModel;

std::pair<Matrix, Labels> blobs(std::size_t n, Rng& rng) {
  Matrix x(n, 6);
  Labels y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 6; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 0) + 0.4 * x(i, 3) + 0.3 * rng.normal() > 0.0 ? 1 : 0;
  }
  return {std::move(x), std::move(y)};
}

ml::MultiLabelDataset synthetic_dataset(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t samples = 90, features = 6, labels = 5;
  MultiLabelDataset data;
  data.features = Matrix(samples, features);
  data.labels.assign(samples, Labels(labels, 0));
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t c = 0; c < features; ++c) data.features(i, c) = rng.normal();
    for (std::size_t v = 0; v < labels; ++v) {
      data.labels[i][v] = data.features(i, v % features) + 0.2 * rng.normal() > 0.0 ? 1 : 0;
    }
  }
  return data;
}

void expect_same_bits(double a, double b, const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << where;
}

// --- CompiledForest against the raw tree ensemble ----------------------

TEST(CompiledForest, AccumulateMatchesScaledTreeSumOracle) {
  Rng rng(101);
  const auto [x, yb] = blobs(250, rng);
  std::vector<double> y(yb.begin(), yb.end());
  std::vector<RegressionTree> trees(12);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    // Vary the targets so the ensemble holds distinct trees of distinct
    // depths (including the chance of single-leaf degenerates).
    std::vector<double> yt = y;
    for (std::size_t i = t; i < yt.size(); i += t + 2) yt[i] = 1.0 - yt[i];
    trees[t].fit(x, yt);
  }
  const double scale = 0.35;
  CompiledForest forest;
  forest.compile(trees, scale);
  ASSERT_TRUE(forest.compiled());

  Rng probe(102);
  const auto [tx, ty] = blobs(64, probe);
  (void)ty;
  for (std::size_t i = 0; i < tx.rows(); ++i) {
    double want = 0.25;  // nonzero init must pass through untouched
    for (const auto& tree : trees) want += scale * tree.predict(tx.row(i));
    const double* row = tx.row(i).data();
    double got = 0.25;
    forest.accumulate_tile(&row, 1, &got);
    expect_same_bits(got, want, "row " + std::to_string(i));
  }
}

TEST(CompiledForest, PartialTilesMatchSingleRowTiles) {
  Rng rng(103);
  const auto [x, yb] = blobs(220, rng);
  std::vector<double> y(yb.begin(), yb.end());
  std::vector<RegressionTree> trees(9);
  for (auto& tree : trees) tree.fit(x, y);
  CompiledForest forest;
  forest.compile(trees, 1.0);
  ASSERT_TRUE(forest.compiled());

  Rng probe(104);
  const auto [tx, ty] = blobs(CompiledForest::kTileRows, probe);
  (void)ty;
  std::array<const double*, CompiledForest::kTileRows> rows{};
  for (std::size_t i = 0; i < tx.rows(); ++i) rows[i] = tx.row(i).data();
  // Every occupancy 1..kTileRows must agree with one-row tiles.
  for (std::size_t count = 1; count <= CompiledForest::kTileRows; ++count) {
    std::array<double, CompiledForest::kTileRows> acc{};
    forest.accumulate_tile(rows.data(), count, acc.data());
    for (std::size_t i = 0; i < count; ++i) {
      double one = 0.0;
      forest.accumulate_tile(&rows[i], 1, &one);
      expect_same_bits(acc[i], one, "count " + std::to_string(count) + " row " + std::to_string(i));
    }
  }
}

TEST(CompiledForest, ReportCountsCompiledStateAndClearsWithIt) {
  Rng rng(105);
  const auto [x, yb] = blobs(200, rng);
  std::vector<double> y(yb.begin(), yb.end());
  std::vector<RegressionTree> trees(7);
  for (auto& tree : trees) tree.fit(x, y);
  CompiledForest forest;
  forest.compile(trees, 1.0);
  ASSERT_TRUE(forest.compiled());

  const ForestCompileReport report = forest.report();
  EXPECT_EQ(report.classifiers, 1u);
  EXPECT_EQ(report.trees, trees.size());
  EXPECT_GT(report.internal_nodes, 0u);
  // Every internal node contributes exactly one extra leaf beyond its
  // tree's first, so a binary ensemble has internal + trees leaves.
  EXPECT_EQ(report.leaves, report.internal_nodes + report.trees);
  EXPECT_GT(report.seconds, 0.0);

  forest.clear();
  EXPECT_FALSE(forest.compiled());
  const ForestCompileReport cleared = forest.report();
  EXPECT_EQ(cleared.classifiers, 0u);
  EXPECT_EQ(cleared.trees, 0u);
  EXPECT_EQ(cleared.seconds, 0.0);
}

// --- Lockstep kernel edge cases, bitwise against the pointer walk ------

/// The pointer walk the kernel must reproduce: init plus every tree's
/// scaled leaf, added in ensemble order.
double pointer_walk_sum(std::span<const RegressionTree> trees, double scale,
                        std::span<const double> x, double init) {
  double sum = init;
  for (const auto& tree : trees) sum += scale * tree.predict(x);
  return sum;
}

/// Checks every row of `probe` through single-row calls and full tiles.
void expect_kernel_matches_pointer_walk(std::span<const RegressionTree> trees, double scale,
                                        const Matrix& probe, const std::string& what) {
  CompiledForest forest;
  forest.compile(trees, scale);
  ASSERT_TRUE(forest.compiled()) << what;
  ASSERT_EQ(forest.num_trees(), trees.size()) << what;
  const double init = -0.125;
  for (std::size_t begin = 0; begin < probe.rows(); begin += CompiledForest::kTileRows) {
    const std::size_t n = std::min(CompiledForest::kTileRows, probe.rows() - begin);
    std::array<const double*, CompiledForest::kTileRows> rows{};
    std::array<double, CompiledForest::kTileRows> acc{};
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = probe.row(begin + i).data();
      acc[i] = init;
    }
    forest.accumulate_tile(rows.data(), n, acc.data());
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = probe.row(begin + i);
      const double want = pointer_walk_sum(trees, scale, x, init);
      const std::string where = what + " row " + std::to_string(begin + i);
      expect_same_bits(acc[i], want, where + " (tile)");
      double single = init;
      forest.accumulate_tile(&rows[i], 1, &single);
      expect_same_bits(single, want, where + " (single row)");
    }
  }
}

/// `n` trees of assorted depths (1..12) on flipped blob targets; every
/// tree in `single_leaf` trains on a constant target and stays one leaf.
std::vector<RegressionTree> assorted_trees(std::size_t n, std::span<const std::size_t> single_leaf,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto [x, yb] = blobs(240, rng);
  std::vector<RegressionTree> trees;
  trees.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    TreeConfig config;
    config.max_depth = 1 + t % 12;
    config.min_samples_split = 2;
    config.min_samples_leaf = 1;
    std::vector<double> y(yb.begin(), yb.end());
    if (std::find(single_leaf.begin(), single_leaf.end(), t) != single_leaf.end()) {
      y.assign(y.size(), 0.75);
    } else {
      for (std::size_t i = t % 5; i < y.size(); i += 3 + t % 4) y[i] = 1.0 - y[i];
    }
    RegressionTree tree(config);
    tree.fit(x, y);
    trees.push_back(std::move(tree));
  }
  return trees;
}

TEST(CompiledForest, EveryLockstepRemainderMatchesPointerWalk) {
  // 1 and 7 trees never fill a group, 8 is exactly one, 9 leaves one
  // tree over, and 41 runs five groups plus a remainder.
  Rng probe_rng(131);
  const Matrix probe = blobs(37, probe_rng).first;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 41u}) {
    const auto trees = assorted_trees(n, {}, 130 + n);
    expect_kernel_matches_pointer_walk(trees, 0.3, probe, std::to_string(n) + " trees");
  }
}

TEST(CompiledForest, SingleLeafTreesInsideGroupsMatchPointerWalk) {
  // Single-leaf trees at a group's first and last lane, two side by side,
  // a whole group of them, and the ensemble's last tree, whose lane reads
  // node 0 while the rest of its group walks.
  const std::vector<std::size_t> single_leaf{0, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19};
  const auto trees = assorted_trees(20, single_leaf, 132);
  for (const std::size_t t : single_leaf) ASSERT_EQ(trees[t].node_count(), 1u) << "tree " << t;
  Rng probe_rng(133);
  const Matrix probe = blobs(24, probe_rng).first;
  expect_kernel_matches_pointer_walk(trees, 1.0, probe, "mixed single-leaf");

  const auto leaves_only = assorted_trees(9, std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8},
                                          134);
  CompiledForest forest;
  forest.compile(leaves_only, 1.0);
  ASSERT_TRUE(forest.compiled());
  EXPECT_EQ(forest.num_internal_nodes(), 0u);
  expect_kernel_matches_pointer_walk(leaves_only, 1.0, probe, "all single-leaf");
}

TEST(CompiledForest, DeepTreeMatchesPointerWalk) {
  Rng rng(135);
  const auto [x, yb] = blobs(1500, rng);
  std::vector<double> y(yb.begin(), yb.end());
  for (std::size_t i = 0; i < y.size(); i += 3) y[i] = 1.0 - y[i];  // noise to fit
  TreeConfig config;
  config.max_depth = 16;
  config.min_samples_split = 2;
  config.min_samples_leaf = 1;
  std::vector<RegressionTree> trees;
  for (std::size_t t = 0; t < 9; ++t) {
    config.seed = 17 + t;
    config.max_features = t % 2 == 0 ? 0 : 3;
    RegressionTree tree(config);
    tree.fit(x, y);
    trees.push_back(std::move(tree));
  }
  // depth() counts the root as level 1: 13 levels means 12 splits deep.
  ASSERT_GE(trees[0].depth(), 13u);
  Rng probe_rng(136);
  const Matrix probe = blobs(64, probe_rng).first;
  expect_kernel_matches_pointer_walk(trees, 0.5, probe, "deep");
  expect_kernel_matches_pointer_walk(std::span<const RegressionTree>(trees).first(1), 0.5, probe,
                                     "one deep tree");
}

/// Follows one fixed side from the root to a leaf.
double edge_leaf(const RegressionTree& tree, bool right) {
  std::size_t i = 0;
  while (tree.node_view(i).feature >= 0) {
    const RegressionTree::NodeView node = tree.node_view(i);
    i = static_cast<std::size_t>(right ? node.right : node.left);
  }
  return tree.node_view(i).value;
}

TEST(CompiledForest, NonFiniteAndOnThresholdInputsMatchPointerWalk) {
  const auto trees = assorted_trees(19, std::vector<std::size_t>{5}, 137);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t width = 6;

  // Rows whose features sit exactly on the split thresholds (x <= t is
  // true there, so they go left), then all-NaN, all-+Inf, all--Inf, and
  // rows mixing NaN and ±Inf with finite values.
  std::vector<std::vector<double>> rows;
  for (const auto& tree : trees) {
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const RegressionTree::NodeView node = tree.node_view(i);
      if (node.feature < 0) continue;
      std::vector<double> row(width, 0.0);
      for (std::size_t c = 0; c < width; ++c) row[c] = node.threshold;
      rows.push_back(std::move(row));
    }
  }
  rows.emplace_back(width, kNan);
  rows.emplace_back(width, kInf);
  rows.emplace_back(width, -kInf);
  rows.push_back({kNan, 0.5, -kInf, 0.0, kInf, -0.25});
  rows.push_back({kInf, kNan, 0.1, -kInf, 0.0, kNan});
  Matrix probe(rows.size(), width);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t c = 0; c < width; ++c) probe(i, c) = rows[i][c];
  }
  expect_kernel_matches_pointer_walk(trees, 0.7, probe, "edge inputs");

  // `x <= t` is false for NaN and +Inf, so those rows take the right
  // child at every node; -Inf takes the left one.
  CompiledForest forest;
  forest.compile(trees, 1.0);
  ASSERT_TRUE(forest.compiled());
  const std::array<std::pair<double, bool>, 3> sides{{{kNan, true}, {kInf, true}, {-kInf, false}}};
  for (const auto& [value, right] : sides) {
    const std::vector<double> x(width, value);
    double want = 0.0;
    for (const auto& tree : trees) want += edge_leaf(tree, right);
    const double* row = x.data();
    double got = 0.0;
    forest.accumulate_tile(&row, 1, &got);
    expect_same_bits(got, want, "all " + std::to_string(value));
  }
}

// --- Fresh-fit bit-identity per ensemble kind --------------------------

template <typename Classifier>
void expect_tile_matches_pointer_walk(Classifier& classifier, std::uint64_t seed) {
  Rng rng(seed);
  const auto [x, y] = blobs(260, rng);
  classifier.fit(x, y);
  ASSERT_NE(classifier.compiled_forest(), nullptr);

  Rng probe(seed + 1);
  const auto [tx, ty] = blobs(52, probe);  // deliberately not a tile multiple
  (void)ty;
  // The tile protocol consumes mapped rows; build them via the
  // classifier's own input map so the comparison covers the real path.
  std::vector<PredictWorkspace> ws(tx.rows());
  std::vector<const double*> rows(tx.rows());
  for (std::size_t i = 0; i < tx.rows(); ++i) {
    classifier.map_input(tx.row(i), ws[i]);
    rows[i] = ws[i].mapped.data();
  }
  const std::size_t dim = ws[0].mapped.size();

  std::vector<double> compiled_out(tx.rows());
  classifier.predict_proba_mapped_tile(rows.data(), rows.size(), dim, compiled_out.data(), 1);

  // predict_proba is the per-row pointer walk: the oracle.
  for (std::size_t i = 0; i < tx.rows(); ++i) {
    expect_same_bits(compiled_out[i], classifier.predict_proba(tx.row(i)),
                     "oracle row " + std::to_string(i));
  }
}

TEST(CompiledForest, RandomForestTileBitIdenticalToPointerWalk) {
  RandomForestClassifier rf;
  expect_tile_matches_pointer_walk(rf, 111);
}

TEST(CompiledForest, GradientBoostingTileBitIdenticalToPointerWalk) {
  GradientBoostingClassifier gb;
  expect_tile_matches_pointer_walk(gb, 113);
}

TEST(CompiledForest, HybridRslTileBitIdenticalToPointerWalk) {
  HybridRslClassifier hybrid;
  expect_tile_matches_pointer_walk(hybrid, 115);
}

// --- Artifact round-trip ----------------------------------------------

TEST(CompiledForest, ArtifactRoundTripRecompilesBitIdentically) {
  ProfileModel original;
  original.kind = ModelKind::kHybridRsl;
  original.model = MultiLabelModel(core::make_classifier_factory(original.kind));
  original.model.fit(synthetic_dataset(0x77));
  // Five sensors plus the time feature: the six columns the model reads.
  original.sensors.sensors.resize(5);
  ASSERT_GT(original.model.forest_compile_report().trees, 0u);

  const std::string path = ::testing::TempDir() + "aqua_compiled_forest.aquamodl";
  original.save_file(path);
  const ProfileModel loaded = ProfileModel::load_file(path);
  std::remove(path.c_str());

  // The load must recompile the same kernels the fit produced...
  const ForestCompileReport want = original.model.forest_compile_report();
  const ForestCompileReport got = loaded.model.forest_compile_report();
  EXPECT_EQ(got.trees, want.trees);
  EXPECT_EQ(got.internal_nodes, want.internal_nodes);
  EXPECT_EQ(got.leaves, want.leaves);
  EXPECT_EQ(got.classifiers, want.classifiers);

  // ...and the compiled batch path must reproduce the original's bits.
  const Matrix probe = synthetic_dataset(0x78).features;
  Matrix out_original, out_loaded;
  original.model.predict_proba_batch_into(probe, out_original, /*parallel=*/false);
  loaded.model.predict_proba_batch_into(probe, out_loaded, /*parallel=*/false);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    for (std::size_t v = 0; v < original.model.num_labels(); ++v) {
      expect_same_bits(out_loaded(i, v), out_original(i, v),
                       "row " + std::to_string(i) + " label " + std::to_string(v));
    }
  }
}

// --- Shared-input-map batch path and the treeless fallback -------------

void expect_batch_matches_per_row(ModelKind kind, bool expect_trees) {
  MultiLabelModel model(core::make_classifier_factory(kind));
  model.fit(synthetic_dataset(0x88));
  EXPECT_EQ(model.forest_compile_report().trees > 0, expect_trees);

  const Matrix probe = synthetic_dataset(0x89).features;
  Matrix out;
  model.predict_proba_batch_into(probe, out, /*parallel=*/false);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    const auto per_row = model.predict_proba(probe.row(i));
    for (std::size_t v = 0; v < model.num_labels(); ++v) {
      expect_same_bits(out(i, v), per_row[v],
                       "row " + std::to_string(i) + " label " + std::to_string(v));
    }
  }
}

TEST(CompiledForest, SharedMapBatchPathBitIdenticalToPerRowPredicts) {
  expect_batch_matches_per_row(ModelKind::kHybridRsl, /*expect_trees=*/true);
}

TEST(CompiledForest, TreelessKindsFallBackTransparently) {
  // No ensemble to flatten: compiled_forest() is null for every head and
  // the tile protocol's default per-row loop serves the batch unchanged.
  MultiLabelModel model(core::make_classifier_factory(ModelKind::kLogisticR));
  model.fit(synthetic_dataset(0x8A));
  for (std::size_t v = 0; v < model.num_labels(); ++v) {
    ASSERT_NE(model.classifier(v), nullptr);
    EXPECT_EQ(model.classifier(v)->compiled_forest(), nullptr);
  }
  expect_batch_matches_per_row(ModelKind::kLogisticR, /*expect_trees=*/false);
}

// --- Concurrency: one shared compiled model, many tile callers ---------

TEST(CompiledForest, ConcurrentTileCallsOnSharedModelStayIdentical) {
  RandomForestClassifier rf;
  Rng rng(121);
  const auto [x, y] = blobs(240, rng);
  rf.fit(x, y);
  ASSERT_NE(rf.compiled_forest(), nullptr);

  Rng probe(122);
  const auto [tx, ty] = blobs(40, probe);
  (void)ty;
  std::vector<const double*> rows(tx.rows());
  for (std::size_t i = 0; i < tx.rows(); ++i) rows[i] = tx.row(i).data();
  std::vector<double> expected(tx.rows());
  rf.predict_proba_mapped_tile(rows.data(), rows.size(), tx.cols(), expected.data(), 1);

  // All state is immutable after fit and the kernel scratch is
  // stack-local, so raw threads hammering one classifier must agree
  // with the sequential pass exactly (and report no races under TSan).
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (std::size_t w = 0; w < mismatches.size(); ++w) {
    threads.emplace_back([&, w] {
      std::vector<double> out(tx.rows());
      for (int rep = 0; rep < 25; ++rep) {
        rf.predict_proba_mapped_tile(rows.data(), rows.size(), tx.cols(), out.data(), 1);
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (std::bit_cast<std::uint64_t>(out[i]) !=
              std::bit_cast<std::uint64_t>(expected[i])) {
            ++mismatches[w];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t w = 0; w < mismatches.size(); ++w) {
    EXPECT_EQ(mismatches[w], 0) << "worker " << w;
  }
}

}  // namespace
}  // namespace aqua::ml
