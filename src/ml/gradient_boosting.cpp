#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/binary.hpp"
#include "ml/linear_models.hpp"

namespace aqua::ml {

GradientBoostingClassifier::GradientBoostingClassifier(GradientBoostingConfig config)
    : config_(config) {
  AQUA_REQUIRE(config_.num_rounds >= 1, "boosting needs at least one round");
  AQUA_REQUIRE(config_.learning_rate > 0.0, "learning rate must be positive");
  AQUA_REQUIRE(config_.subsample > 0.0 && config_.subsample <= 1.0, "subsample must be in (0,1]");
  AQUA_REQUIRE(config_.max_bins >= 2 && config_.max_bins <= BinnedDataset::kMaxBins,
               "max_bins out of range");
}

void GradientBoostingClassifier::fit_checked(const Matrix& x, const Labels& y,
                                             const FitStore& store) {
  AQUA_REQUIRE(store.bins.matches(x, config_.max_bins),
               "fit store lacks this ensemble's binning of the training matrix");
  const std::size_t n = x.rows();
  const auto [w_neg, w_pos] = balanced_class_weights(y);
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = y[i] != 0 ? w_pos : w_neg;

  // With balanced weights the weighted positive rate is 1/2, so the
  // initial log-odds is 0; keep the general formula for clarity.
  const double pos_rate = positive_rate(y);
  base_score_ = std::log(pos_rate / (1.0 - pos_rate));

  std::vector<double> score(n, base_score_);
  std::vector<double> residual(n), hessian(n);
  Rng rng(config_.seed);
  trees_.clear();
  trees_.reserve(config_.num_rounds);

  const auto subsample_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.subsample * static_cast<double>(n)));

  std::vector<std::int32_t> leaf_of_row;
  for (std::size_t round = 0; round < config_.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(score[i]);
      residual[i] = (y[i] != 0 ? 1.0 : 0.0) - p;
      hessian[i] = std::max(p * (1.0 - p), 1e-6);
    }
    std::vector<std::size_t> rows;
    if (subsample_count < n) {
      rows = rng.sample_without_replacement(n, subsample_count);
    }
    TreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.min_samples_split = 2 * config_.min_samples_leaf;
    tree_config.seed = rng();
    RegressionTree tree(tree_config);
    // The kernel reports every row's leaf, so the round's score update is
    // a leaf-value lookup instead of n full tree traversals
    // (leaf_value(leaf_of_row[i]) == predict(row i) bitwise).
    tree.fit_binned(store.bins, residual, weights, rows, hessian, &leaf_of_row);
    for (std::size_t i = 0; i < n; ++i) {
      score[i] += config_.learning_rate *
                  tree.leaf_value(static_cast<std::size_t>(leaf_of_row[i]));
    }
    trees_.push_back(std::move(tree));
  }
  compiled_.compile(trees_, config_.learning_rate);
}

BinaryClassifier::InputWidth GradientBoostingClassifier::input_width() const {
  std::size_t width = 0;
  for (const auto& tree : trees_) width = std::max(width, tree.input_width());
  return {width, false};
}

double GradientBoostingClassifier::predict_proba(std::span<const double> x) const {
  AQUA_REQUIRE(!trees_.empty(), "predict on unfitted model");
  double score = base_score_;
  for (const auto& tree : trees_) score += config_.learning_rate * tree.predict(x);
  return sigmoid(score);
}

void GradientBoostingClassifier::predict_proba_mapped_tile(const double* const* rows,
                                                           std::size_t count, std::size_t dim,
                                                           double* out,
                                                           std::size_t stride) const {
  if (!compiled_.compiled()) {
    BinaryClassifier::predict_proba_mapped_tile(rows, count, dim, out, stride);
    return;
  }
  double acc[CompiledForest::kTileRows];
  for (std::size_t begin = 0; begin < count; begin += CompiledForest::kTileRows) {
    const std::size_t n = std::min(CompiledForest::kTileRows, count - begin);
    for (std::size_t i = 0; i < n; ++i) acc[i] = base_score_;
    compiled_.accumulate_tile(rows + begin, n, acc);
    for (std::size_t i = 0; i < n; ++i) out[(begin + i) * stride] = sigmoid(acc[i]);
  }
}

std::unique_ptr<BinaryClassifier> GradientBoostingClassifier::clone_config() const {
  return std::make_unique<GradientBoostingClassifier>(config_);
}

void GradientBoostingClassifier::save_state(io::BinaryWriter& writer) const {
  writer.write_u64(config_.num_rounds);
  writer.write_f64(config_.learning_rate);
  writer.write_u64(config_.max_depth);
  writer.write_u64(config_.min_samples_leaf);
  writer.write_f64(config_.subsample);
  writer.write_u64(config_.seed);
  writer.write_u64(config_.max_bins);
  writer.write_f64(base_score_);
  writer.write_u64(trees_.size());
  for (const auto& tree : trees_) tree.save(writer);
}

void GradientBoostingClassifier::load_state(io::BinaryReader& reader,
                                            const std::shared_ptr<const SvmFeatureMap>&) {
  config_.num_rounds = reader.read_u64();
  config_.learning_rate = reader.read_f64();
  config_.max_depth = reader.read_u64();
  config_.min_samples_leaf = reader.read_u64();
  config_.subsample = reader.read_f64();
  config_.seed = reader.read_u64();
  config_.max_bins = reader.read_u64();
  base_score_ = reader.read_f64();
  const std::uint64_t count = reader.read_u64();
  // A fitted ensemble has a tree; a count the payload cannot hold is
  // rejected before anything is allocated for it.
  if (count == 0 || count > (std::uint64_t{1} << 24) ||
      count > reader.remaining() / RegressionTree::kMinSerializedBytes) {
    throw io::SerializationError("malformed ensemble size");
  }
  trees_.clear();
  trees_.reserve(count);
  for (std::uint64_t t = 0; t < count; ++t) {
    RegressionTree tree;
    tree.load(reader);
    trees_.push_back(std::move(tree));
  }
  compiled_.compile(trees_, config_.learning_rate);
}

}  // namespace aqua::ml
