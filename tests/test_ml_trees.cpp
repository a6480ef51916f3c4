#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "io/binary.hpp"

namespace aqua::ml {
namespace {

/// Step-function data: y = 1 iff x0 > 0.5.
std::pair<linalg::Matrix, std::vector<double>> step_data(std::size_t n, Rng& rng) {
  linalg::Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.uniform();
    y[i] = x(i, 0) > 0.5 ? 1.0 : 0.0;
  }
  return {std::move(x), std::move(y)};
}

TEST(RegressionTree, LearnsStepFunction) {
  Rng rng(1);
  const auto [x, y] = step_data(500, rng);
  RegressionTree tree;
  tree.fit(x, y);
  Rng test_rng(2);
  const auto [tx, ty] = step_data(200, test_rng);
  int correct = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    correct += ((tree.predict(tx.row(i)) > 0.5) == (ty[i] > 0.5));
  }
  EXPECT_GT(correct, 195);
}

TEST(RegressionTree, ConstantTargetsYieldSingleLeaf) {
  linalg::Matrix x(10, 2, 1.0);
  std::vector<double> y(10, 0.7);
  RegressionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict(x.row(0)), 0.7, 1e-12);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Rng rng(6);
  const auto [x, y] = step_data(500, rng);
  TreeConfig config;
  config.max_depth = 2;
  RegressionTree tree(config);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3u);  // root at depth 1 + 2 levels
}

TEST(RegressionTree, MinSamplesLeafLimitsGrowth) {
  Rng rng(7);
  const auto [x, y] = step_data(100, rng);
  TreeConfig config;
  config.min_samples_leaf = 40;
  RegressionTree tree(config);
  tree.fit(x, y);
  EXPECT_LE(tree.node_count(), 5u);
}

TEST(RegressionTree, WeightsShiftLeafValues) {
  // Two clusters of equal size; weighting one up moves the root mean.
  linalg::Matrix x(4, 1);
  x(0, 0) = x(1, 0) = 0.0;
  x(2, 0) = x(3, 0) = 0.0;  // constant feature -> single leaf
  std::vector<double> y{0.0, 0.0, 1.0, 1.0};
  std::vector<double> w{1.0, 1.0, 3.0, 3.0};
  RegressionTree tree;
  tree.fit(x, y, w);
  EXPECT_NEAR(tree.predict(x.row(0)), 0.75, 1e-12);
}

TEST(RegressionTree, HessianNewtonLeaves) {
  linalg::Matrix x(2, 1, 0.0);
  std::vector<double> residual{0.4, 0.4};
  std::vector<double> hessian{0.2, 0.2};
  RegressionTree tree;
  tree.fit(x, residual, {}, {}, hessian);
  EXPECT_NEAR(tree.predict(x.row(0)), 0.4 / 0.2, 1e-9);
}

TEST(RegressionTree, SampleIndicesSubsetOnly) {
  linalg::Matrix x(4, 1);
  for (std::size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<double> y{0.0, 0.0, 1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};  // only the zeros
  RegressionTree tree;
  tree.fit(x, y, {}, rows);
  EXPECT_NEAR(tree.predict(x.row(3)), 0.0, 1e-12);
}

TEST(RegressionTree, PredictBeforeFitThrows) {
  RegressionTree tree;
  std::vector<double> x{1.0};
  EXPECT_THROW(tree.predict(x), InvalidArgument);
}

TEST(BinnedDataset, CodesAreOrderConsistent) {
  linalg::Matrix x(100, 1);
  Rng rng(8);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = rng.uniform();
  BinnedDataset store;
  store.fit(x, 16);
  for (std::size_t i = 0; i < 99; ++i) {
    for (std::size_t j = i + 1; j < 100; ++j) {
      if (x(i, 0) < x(j, 0)) {
        EXPECT_LE(store.code(i, 0), store.code(j, 0));
      }
    }
  }
}

TEST(BinnedDataset, ConstantFeatureSingleBin) {
  linalg::Matrix x(10, 1, 3.0);
  BinnedDataset store;
  store.fit(x);
  EXPECT_EQ(store.bins(0), 1u);
}

TEST(BinnedDataset, BinCountBounded) {
  linalg::Matrix x(1000, 1);
  Rng rng(9);
  for (std::size_t i = 0; i < 1000; ++i) x(i, 0) = rng.uniform();
  BinnedDataset store;
  store.fit(x, 32);
  EXPECT_LE(store.bins(0), 32u);
  EXPECT_GT(store.bins(0), 16u);  // plenty of distinct values
}

TEST(BinnedDataset, Validation) {
  BinnedDataset store;
  linalg::Matrix empty(0, 0);
  EXPECT_THROW(store.fit(empty), InvalidArgument);
  linalg::Matrix x(5, 1, 1.0);
  EXPECT_THROW(store.fit(x, 1), InvalidArgument);
  EXPECT_THROW(store.fit(x, 256), InvalidArgument);  // uint8 codes cap at 255 bins
}

TEST(BinnedDataset, CodesFallBetweenBoundaries) {
  // Code c means upper_boundary(c-1) < x <= upper_boundary(c); the first
  // bin has no lower boundary and the last no upper one.
  Rng rng(41);
  const auto [x, y] = step_data(300, rng);
  (void)y;
  BinnedDataset store;
  store.fit(x);
  ASSERT_EQ(store.num_samples(), x.rows());
  ASSERT_EQ(store.num_features(), x.cols());
  for (std::size_t f = 0; f < store.num_features(); ++f) {
    const std::size_t bins = store.bins(f);
    ASSERT_GT(bins, 1u);
    const auto column = store.column(f);
    for (std::size_t r = 0; r < store.num_samples(); ++r) {
      const std::size_t c = store.code(r, f);
      EXPECT_EQ(column[r], c);
      ASSERT_LT(c, bins);
      if (c > 0) {
        EXPECT_LT(store.upper_boundary(f, c - 1), x(r, f));
      }
      if (c + 1 < bins) {
        EXPECT_LE(x(r, f), store.upper_boundary(f, c));
      }
    }
  }
}

TEST(BinnedDataset, ParallelEqualsSerialFit) {
  Rng rng(42);
  const auto [x, y] = step_data(400, rng);
  (void)y;
  BinnedDataset serial, parallel;
  serial.fit(x, BinnedDataset::kDefaultBins, /*parallel=*/false);
  parallel.fit(x, BinnedDataset::kDefaultBins, /*parallel=*/true);
  ASSERT_EQ(serial.num_features(), parallel.num_features());
  for (std::size_t f = 0; f < serial.num_features(); ++f) {
    ASSERT_EQ(serial.bins(f), parallel.bins(f));
    EXPECT_EQ(serial.cuts(f), parallel.cuts(f));
    const auto a = serial.column(f);
    const auto b = parallel.column(f);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(BinnedDataset, SupportsFullUint8BinRange) {
  // 255 bins on a column with 1000 distinct values: codes use the full
  // uint8 range and decode back to monotone bin membership.
  linalg::Matrix x(1000, 1);
  Rng rng(43);
  for (std::size_t r = 0; r < 1000; ++r) x(r, 0) = static_cast<double>(r) + rng.uniform();
  BinnedDataset store;
  store.fit(x, BinnedDataset::kMaxBins);
  EXPECT_GT(store.bins(0), 200u);
  EXPECT_LE(store.bins(0), 255u);
  for (std::size_t r = 0; r + 1 < 1000; ++r) {
    EXPECT_LE(store.code(r, 0), store.code(r + 1, 0));  // sorted input -> monotone codes
  }
}

TEST(RegressionTree, StoreKernelLearnsStepFunction) {
  Rng rng(45);
  const auto [x, y] = step_data(500, rng);
  BinnedDataset store;
  store.fit(x);
  RegressionTree tree;
  tree.fit_binned(store, y);
  Rng test_rng(46);
  const auto [tx, ty] = step_data(200, test_rng);
  int correct = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    correct += ((tree.predict(tx.row(i)) > 0.5) == (ty[i] > 0.5));
  }
  EXPECT_GT(correct, 190);
}

/// Features on at most 32 equally frequent levels (n divisible by every
/// level count, levels shuffled per feature): at 64 bins every level gets
/// its own bin, so the histogram kernel sees every split exact CART sees.
linalg::Matrix leveled_data(std::size_t n, std::span<const std::size_t> levels, Rng& rng) {
  linalg::Matrix x(n, levels.size());
  std::vector<std::size_t> codes(n);
  for (std::size_t f = 0; f < levels.size(); ++f) {
    for (std::size_t r = 0; r < n; ++r) codes[r] = r % levels[f];
    rng.shuffle(codes);
    for (std::size_t r = 0; r < n; ++r) {
      x(r, f) = 0.37 * static_cast<double>(codes[r]) + static_cast<double>(f);
    }
  }
  return x;
}

TEST(RegressionTree, StoreKernelMatchesExactOracle) {
  // On losslessly binned data both fitters choose among the same row
  // partitions with the same feature draws and tie order; random weights
  // keep gains from tying, so the histogram kernel must grow exact
  // CART's tree. Thresholds differ (bin boundary vs midpoint) but send
  // every training row the same way; leaf values differ only by
  // summation order.
  const std::size_t n = 640;
  const std::vector<std::size_t> levels{32, 20, 16, 10, 8, 5, 4, 2, 32, 16};
  Rng rng(47);
  const linalg::Matrix x = leveled_data(n, levels, rng);
  std::vector<double> y(n), weights(n), hessians(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 2) * x(i, 5) - 0.2 * x(i, 8) + rng.uniform();
    weights[i] = 0.5 + rng.uniform();
    hessians[i] = 0.1 + rng.uniform();
  }
  const auto rows = rng.sample_without_replacement(n, 3 * n / 4);
  BinnedDataset store;
  store.fit(x, 64);
  for (std::size_t f = 0; f < levels.size(); ++f) ASSERT_EQ(store.bins(f), levels[f]);

  for (const std::size_t max_features : {std::size_t{0}, std::size_t{4}}) {
    TreeConfig config;
    config.max_depth = 6;
    // Leaves of a dozen rows keep two features from inducing the same
    // partition of a node, which would make their gains tie exactly.
    config.min_samples_leaf = 12;
    config.min_samples_split = 24;
    config.max_features = max_features;
    config.seed = 11;
    RegressionTree exact(config), fast(config);
    exact.fit(x, y, weights, rows, hessians);
    fast.fit_binned(store, y, weights, rows, hessians);
    ASSERT_GT(exact.node_count(), 15u) << max_features;
    ASSERT_EQ(fast.node_count(), exact.node_count()) << max_features;
    for (std::size_t i = 0; i < exact.node_count(); ++i) {
      EXPECT_EQ(fast.node_view(i).feature, exact.node_view(i).feature)
          << "node " << i << ", max_features " << max_features;
    }
    for (const std::size_t r : rows) {
      EXPECT_NEAR(fast.predict(x.row(r)), exact.predict(x.row(r)), 1e-9) << max_features;
    }
  }
}

TEST(RegressionTree, StoreLeafOfRowMatchesPredictBitwise) {
  // With weights, hessians, and a strict row subsample: every row of the
  // store — sampled or not — must land on the leaf whose value equals
  // predict() exactly.
  Rng rng(49);
  const auto [x, y] = step_data(400, rng);
  std::vector<double> weights(x.rows()), hessians(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    weights[i] = 0.5 + rng.uniform();
    hessians[i] = 0.1 + rng.uniform();
  }
  const auto rows = rng.sample_without_replacement(x.rows(), x.rows() / 2);
  BinnedDataset store;
  store.fit(x);
  RegressionTree tree;
  std::vector<std::int32_t> leaf_of_row;
  tree.fit_binned(store, y, weights, rows, hessians, &leaf_of_row);
  ASSERT_EQ(leaf_of_row.size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_GE(leaf_of_row[i], 0);
    EXPECT_EQ(tree.leaf_value(static_cast<std::size_t>(leaf_of_row[i])), tree.predict(x.row(i)));
  }
}

TEST(RegressionTree, StoreKernelWithFeatureSubsampling) {
  // RF mode: max_features < d disables the subtraction trick; leaf
  // reporting must still be exact.
  Rng rng(51);
  const auto [x, y] = step_data(400, rng);
  BinnedDataset store;
  store.fit(x);
  TreeConfig config;
  config.max_features = 1;
  config.seed = 7;
  RegressionTree tree(config);
  std::vector<std::int32_t> leaf_of_row;
  tree.fit_binned(store, y, {}, {}, {}, &leaf_of_row);
  ASSERT_TRUE(tree.fitted());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(tree.leaf_value(static_cast<std::size_t>(leaf_of_row[i])), tree.predict(x.row(i)));
  }
}

TEST(RegressionTree, StoreValidation) {
  RegressionTree tree;
  BinnedDataset store;
  std::vector<double> y(5, 0.0);
  EXPECT_THROW(tree.fit_binned(store, y), InvalidArgument);  // unfitted store
  linalg::Matrix x(5, 2);
  Rng rng(52);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 2; ++c) x(r, c) = rng.uniform();
  store.fit(x);
  std::vector<double> short_y(3, 0.0);
  EXPECT_THROW(tree.fit_binned(store, short_y), InvalidArgument);  // row mismatch
}

TEST(RegressionTree, StoreFitFannedOutEqualsInlineFit) {
  // Large enough that the root's histogram build and candidate scan fan
  // out over the pool (rows x candidates >= 2^14, more than 8 features).
  // The same fit submitted to the pool runs its nested fan-out inline;
  // both must grow the identical tree. Under TSan this is the tree
  // kernel's parallel path.
  const std::size_t n = 2048, d = 24;
  Rng rng(53);
  linalg::Matrix x(n, d);
  std::vector<double> y(n), weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) x(i, c) = rng.normal();
    y[i] = (x(i, 3) > 0.3 ? 1.0 : 0.0) + 0.1 * x(i, 17);
    weights[i] = 0.5 + rng.uniform();
  }
  BinnedDataset store;
  store.fit(x);

  for (const std::size_t max_features : {std::size_t{0}, std::size_t{12}}) {
    TreeConfig config;
    config.max_features = max_features;
    config.seed = 5;
    RegressionTree fanned(config), inlined(config);
    std::vector<std::int32_t> fanned_leaves, inlined_leaves;
    fanned.fit_binned(store, y, weights, {}, {}, &fanned_leaves);
    ThreadPool::global()
        .submit([&] { inlined.fit_binned(store, y, weights, {}, {}, &inlined_leaves); })
        .get();

    ASSERT_EQ(fanned.node_count(), inlined.node_count()) << max_features;
    for (std::size_t i = 0; i < fanned.node_count(); ++i) {
      const auto a = fanned.node_view(i);
      const auto b = inlined.node_view(i);
      EXPECT_EQ(a.feature, b.feature);
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
    }
    EXPECT_EQ(fanned_leaves, inlined_leaves) << max_features;
  }
}

struct RawNode {
  int feature;
  int left;
  int right;
};

/// Serialized tree recording `count` nodes followed by `nodes` (splits on
/// feature 0 at 0.5, leaves valued by index).
std::string tree_bytes(const std::vector<RawNode>& nodes, std::uint64_t count) {
  io::BinaryWriter writer;
  for (int k = 0; k < 5; ++k) writer.write_u64(4);  // tree config
  writer.write_u64(count);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    writer.write_i32(nodes[i].feature);
    writer.write_f64(0.5);
    writer.write_f64(static_cast<double>(i));
    writer.write_i32(nodes[i].left);
    writer.write_i32(nodes[i].right);
  }
  return writer.buffer();
}

std::string tree_bytes(const std::vector<RawNode>& nodes) {
  return tree_bytes(nodes, nodes.size());
}

void expect_load_rejected(const std::string& bytes) {
  io::BinaryReader reader(bytes);
  RegressionTree tree;
  EXPECT_THROW(tree.load(reader), io::SerializationError);
}

TEST(RegressionTreeLoad, RejectsOutOfRangeChild) {
  expect_load_rejected(tree_bytes({{0, 1, 3}, {-1, -1, -1}, {-1, -1, -1}}));
  expect_load_rejected(tree_bytes({{0, -1, 1}, {-1, -1, -1}}));
}

TEST(RegressionTreeLoad, RejectsSelfOrBackChild) {
  // A root whose left child is itself: predict() would never return.
  expect_load_rejected(tree_bytes({{0, 0, 1}, {-1, -1, -1}}));
  // A right child pointing back at the root.
  expect_load_rejected(
      tree_bytes({{0, 1, 4}, {0, 2, 0}, {-1, -1, -1}, {-1, -1, -1}, {-1, -1, -1}}));
}

TEST(RegressionTreeLoad, RejectsSharedChild) {
  // Node 2 is the root's right child and node 1's left child.
  expect_load_rejected(tree_bytes({{0, 1, 2}, {0, 2, 3}, {-1, -1, -1}, {-1, -1, -1}}));
}

TEST(RegressionTreeLoad, RejectsOrphanNode) {
  // A leaf root followed by a stray leaf that no split claims.
  expect_load_rejected(tree_bytes({{-1, -1, -1}, {-1, -1, -1}}));
  // A split whose right child skips node 2, which no walk then reaches.
  expect_load_rejected(
      tree_bytes({{0, 1, 3}, {-1, -1, -1}, {-1, -1, -1}, {-1, -1, -1}}));
}

TEST(RegressionTreeLoad, RejectsNodeCountBeyondPayload) {
  expect_load_rejected(tree_bytes({{-1, -1, -1}}, std::uint64_t{1} << 32));
}

}  // namespace
}  // namespace aqua::ml
