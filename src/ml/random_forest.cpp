#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::ml {

RandomForestClassifier::RandomForestClassifier(RandomForestConfig config) : config_(config) {
  AQUA_REQUIRE(config_.num_trees >= 1, "forest needs at least one tree");
  AQUA_REQUIRE(config_.max_bins >= 2 && config_.max_bins <= BinnedDataset::kMaxBins,
               "max_bins out of range");
}

void RandomForestClassifier::fit_checked(const Matrix& x, const Labels& y,
                                         const FitStore& store) {
  AQUA_REQUIRE(store.bins.matches(x, config_.max_bins),
               "fit store lacks this forest's binning of the training matrix");
  const std::size_t n = x.rows();
  const auto [w_neg, w_pos] = balanced_class_weights(y);
  std::vector<double> targets(n), weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = y[i] != 0 ? 1.0 : 0.0;
    weights[i] = y[i] != 0 ? w_pos : w_neg;
  }

  std::size_t mtry = config_.max_features;
  if (mtry == 0) {
    mtry = config_.max_features_fraction > 0.0
               ? std::max<std::size_t>(
                     1, static_cast<std::size_t>(config_.max_features_fraction *
                                                 static_cast<double>(x.cols())))
               : std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(
                                              static_cast<double>(x.cols()))));
    // Cap the per-split feature budget: beyond ~64 candidate features the
    // marginal chance of catching the informative near-leak sensors no
    // longer justifies the linear cost in wide (full-IoT) feature spaces.
    mtry = std::min({mtry, x.cols(), std::size_t{64}});
  }

  trees_.clear();
  trees_.reserve(config_.num_trees);
  Rng rng(config_.seed);
  std::vector<std::size_t> bootstrap(n);
  for (std::size_t b = 0; b < config_.num_trees; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      bootstrap[i] =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    TreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.min_samples_split = 2 * config_.min_samples_leaf;
    tree_config.max_features = mtry;
    tree_config.seed = rng();
    RegressionTree tree(tree_config);
    // Every bootstrap tree reuses the store's column-block encoding.
    tree.fit_binned(store.bins, targets, weights, bootstrap);
    trees_.push_back(std::move(tree));
  }
  compiled_.compile(trees_, 1.0);
}

BinaryClassifier::InputWidth RandomForestClassifier::input_width() const {
  std::size_t width = 0;
  for (const auto& tree : trees_) width = std::max(width, tree.input_width());
  return {width, false};
}

double RandomForestClassifier::predict_proba(std::span<const double> x) const {
  AQUA_REQUIRE(!trees_.empty(), "predict on unfitted forest");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict(x);
  return std::clamp(sum / static_cast<double>(trees_.size()), 0.0, 1.0);
}

void RandomForestClassifier::predict_proba_mapped_tile(const double* const* rows,
                                                       std::size_t count, std::size_t dim,
                                                       double* out, std::size_t stride) const {
  if (!compiled_.compiled()) {
    BinaryClassifier::predict_proba_mapped_tile(rows, count, dim, out, stride);
    return;
  }
  // Leaf means accumulate with scale 1 (baked at compile time), so the
  // per-row sum-then-clamp below replays predict_proba's arithmetic
  // exactly: same adds in tree order, same divide, same clamp.
  const double num_trees = static_cast<double>(trees_.size());
  double acc[CompiledForest::kTileRows];
  for (std::size_t begin = 0; begin < count; begin += CompiledForest::kTileRows) {
    const std::size_t n = std::min(CompiledForest::kTileRows, count - begin);
    for (std::size_t i = 0; i < n; ++i) acc[i] = 0.0;
    compiled_.accumulate_tile(rows + begin, n, acc);
    for (std::size_t i = 0; i < n; ++i) {
      out[(begin + i) * stride] = std::clamp(acc[i] / num_trees, 0.0, 1.0);
    }
  }
}

std::unique_ptr<BinaryClassifier> RandomForestClassifier::clone_config() const {
  return std::make_unique<RandomForestClassifier>(config_);
}

void RandomForestClassifier::save_state(io::BinaryWriter& writer) const {
  writer.write_u64(config_.num_trees);
  writer.write_u64(config_.max_depth);
  writer.write_u64(config_.min_samples_leaf);
  writer.write_u64(config_.max_features);
  writer.write_f64(config_.max_features_fraction);
  writer.write_u64(config_.seed);
  writer.write_u64(config_.max_bins);
  writer.write_u64(trees_.size());
  for (const auto& tree : trees_) tree.save(writer);
}

void RandomForestClassifier::load_state(io::BinaryReader& reader,
                                        const std::shared_ptr<const SvmFeatureMap>&) {
  config_.num_trees = reader.read_u64();
  config_.max_depth = reader.read_u64();
  config_.min_samples_leaf = reader.read_u64();
  config_.max_features = reader.read_u64();
  config_.max_features_fraction = reader.read_f64();
  config_.seed = reader.read_u64();
  config_.max_bins = reader.read_u64();
  const std::uint64_t count = reader.read_u64();
  // A fitted forest has a tree; a count the payload cannot hold is
  // rejected before anything is allocated for it.
  if (count == 0 || count > (std::uint64_t{1} << 24) ||
      count > reader.remaining() / RegressionTree::kMinSerializedBytes) {
    throw io::SerializationError("malformed forest size");
  }
  trees_.clear();
  trees_.reserve(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    RegressionTree tree;
    tree.load(reader);
    trees_.push_back(std::move(tree));
  }
  compiled_.compile(trees_, 1.0);
}

}  // namespace aqua::ml
