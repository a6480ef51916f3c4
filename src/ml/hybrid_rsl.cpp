#include "ml/hybrid_rsl.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::ml {

HybridRslClassifier::HybridRslClassifier(HybridRslConfig config)
    : config_(config), forest_(config.forest), svm_(config.svm), meta_(config.meta) {}

void HybridRslClassifier::fit(const Matrix& x, const Labels& y) {
  fit_with_store(x, y, FitStore{});
}

void HybridRslClassifier::fit_with_store(const Matrix& x, const Labels& y,
                                         const FitStore& store) {
  AQUA_REQUIRE(x.rows() == y.size(), "feature/label row mismatch");

  const double pos_rate = positive_rate(y);
  if (pos_rate == 0.0 || pos_rate == 1.0) {
    constant_ = true;
    constant_probability_ = pos_rate;
    return;
  }
  constant_ = false;

  forest_.fit_with_store(x, y, store);
  const std::vector<double> decision = svm_.fit_decisions(x, y, store);

  // Stack the base learners' probabilities as the meta feature set. The
  // SVM column comes from the decisions its Platt fit already computed:
  // probability(decision[i]) is bitwise svm_.predict_proba(x.row(i)).
  Matrix meta_features(x.rows(), 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    meta_features(i, 0) = forest_.predict_proba(x.row(i));
    meta_features(i, 1) = svm_.probability(decision[i]);
  }
  meta_.fit(meta_features, y);
}

BinaryClassifier::InputWidth HybridRslClassifier::input_width() const {
  if (constant_) return {};
  const InputWidth trees = forest_.input_width();
  const InputWidth svm = svm_.input_width();
  if (!svm.exact) return trees;  // a constant SVM branch reads nothing
  return {std::max(trees.width, svm.width), true};
}

double HybridRslClassifier::predict_proba(std::span<const double> x) const {
  if (constant_) return constant_probability_;
  const double meta_input[2] = {forest_.predict_proba(x), svm_.predict_proba(x)};
  return meta_.predict_proba(std::span<const double>(meta_input, 2));
}

bool HybridRslClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  if (constant_) return true;
  const auto* peer = dynamic_cast<const HybridRslClassifier*>(&owner);
  // A non-constant hybrid's inner svm is non-constant too (both degenerate
  // on exactly the single-class condition of the same targets), so the
  // delegated check compares fitted transform state.
  return peer != nullptr && !peer->constant_ && svm_.accepts_input_map(peer->svm_);
}

void HybridRslClassifier::map_input(std::span<const double> x, PredictWorkspace& ws) const {
  if (constant_) {
    ws.mapped.assign(x.begin(), x.end());
    return;
  }
  svm_.map_input(x, ws);     // ws.mapped = inner SVM map
  ws.scratch.swap(ws.mapped);  // scratch and scratch2 are free again here
  ws.mapped.resize(x.size() + ws.scratch.size());
  std::copy(x.begin(), x.end(), ws.mapped.begin());
  std::copy(ws.scratch.begin(), ws.scratch.end(), ws.mapped.begin() + x.size());
}

double HybridRslClassifier::predict_proba_mapped(std::span<const double> mapped) const {
  if (constant_) return constant_probability_;
  const std::size_t svm_dim = svm_.feature_map()->dimension();
  AQUA_REQUIRE(mapped.size() > svm_dim, "hybrid shared map too small");
  const std::size_t d = mapped.size() - svm_dim;
  const double meta_input[2] = {forest_.predict_proba(mapped.first(d)),
                                svm_.predict_proba_mapped(mapped.subspan(d))};
  return meta_.predict_proba(std::span<const double>(meta_input, 2));
}

void HybridRslClassifier::predict_proba_mapped_tile(const double* const* rows, std::size_t count,
                                                    std::size_t dim, double* out,
                                                    std::size_t stride) const {
  if (constant_) {
    for (std::size_t i = 0; i < count; ++i) out[i * stride] = constant_probability_;
    return;
  }
  const std::size_t svm_dim = svm_.feature_map()->dimension();
  AQUA_REQUIRE(dim > svm_dim, "hybrid shared map too small");
  const std::size_t d = dim - svm_dim;
  double forest_p[kPredictTileRows];
  for (std::size_t begin = 0; begin < count; begin += kPredictTileRows) {
    const std::size_t n = std::min(kPredictTileRows, count - begin);
    // The forest sees only the raw-feature prefix of each mapped row; the
    // inner RF's tile kernel is bit-identical to its pointer walk.
    forest_.predict_proba_mapped_tile(rows + begin, n, d, forest_p, 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double meta_input[2] = {
          forest_p[i],
          svm_.predict_proba_mapped(std::span<const double>(rows[begin + i] + d, svm_dim))};
      out[(begin + i) * stride] = meta_.predict_proba(std::span<const double>(meta_input, 2));
    }
  }
}

std::unique_ptr<BinaryClassifier> HybridRslClassifier::clone_config() const {
  return std::make_unique<HybridRslClassifier>(config_);
}

void HybridRslClassifier::save_state(io::BinaryWriter& writer, SvmMapTable& maps) const {
  writer.write_u64(config_.forest.num_trees);
  writer.write_u64(config_.forest.max_depth);
  writer.write_u64(config_.forest.min_samples_leaf);
  writer.write_u64(config_.forest.max_features);
  writer.write_f64(config_.forest.max_features_fraction);
  writer.write_u64(config_.forest.seed);
  writer.write_u64(config_.forest.max_bins);
  write_sgd_config(writer, config_.svm.sgd);
  writer.write_u64(config_.svm.rff_dimension);
  writer.write_f64(config_.svm.rff_gamma);
  writer.write_u64(config_.svm.seed);
  write_sgd_config(writer, config_.meta);
  writer.write_bool(constant_);
  writer.write_f64(constant_probability_);
  // The stacked members persist their own hyper-parameters alongside their
  // fitted state. A constant model never fit them, so their state would be
  // the unfitted default (which the members' own load-time validation
  // rejects); prediction never consults them either, so skip them.
  if (!constant_) {
    forest_.save_state(writer, maps);
    svm_.save_state(writer, maps);
    meta_.save_state(writer, maps);
  }
}

void HybridRslClassifier::load_state(io::BinaryReader& reader, const SvmMapTable& maps) {
  config_.forest.num_trees = reader.read_u64();
  config_.forest.max_depth = reader.read_u64();
  config_.forest.min_samples_leaf = reader.read_u64();
  config_.forest.max_features = reader.read_u64();
  config_.forest.max_features_fraction = reader.read_f64();
  config_.forest.seed = reader.read_u64();
  config_.forest.max_bins = reader.read_u64();
  config_.svm.sgd = read_sgd_config(reader);
  config_.svm.rff_dimension = reader.read_u64();
  config_.svm.rff_gamma = reader.read_f64();
  config_.svm.seed = reader.read_u64();
  config_.meta = read_sgd_config(reader);
  constant_ = reader.read_bool();
  constant_probability_ = reader.read_f64();
  if (!constant_) {
    forest_.load_state(reader, maps);
    svm_.load_state(reader, maps);
    meta_.load_state(reader, maps);
    // Fitted stacks degenerate together; the mapped paths size the SVM
    // branch by its feature map.
    if (svm_.feature_map() == nullptr) {
      throw io::SerializationError("malformed HybridRSL state: fitted stack without an SVM map");
    }
  }
}

}  // namespace aqua::ml
