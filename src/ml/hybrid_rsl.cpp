#include "ml/hybrid_rsl.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::ml {

HybridRslClassifier::HybridRslClassifier(HybridRslConfig config)
    : forest_(config.forest), svm_(config.svm), meta_(config.meta) {}

void HybridRslClassifier::fit_checked(const Matrix& x, const Labels& y, const FitStore& store) {
  forest_.fit(x, y, store);
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
  return {std::max(forest_.input_width().width, svm_.input_width().width), true};
}

double HybridRslClassifier::predict_proba(std::span<const double> x) const {
  const double meta_input[2] = {forest_.predict_proba(x), svm_.predict_proba(x)};
  return meta_.predict_proba(std::span<const double>(meta_input, 2));
}

bool HybridRslClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  const auto* peer = dynamic_cast<const HybridRslClassifier*>(&owner);
  return peer != nullptr && svm_.accepts_input_map(peer->svm_);
}

void HybridRslClassifier::map_input(std::span<const double> x, PredictWorkspace& ws) const {
  svm_.map_input(x, ws);     // ws.mapped = inner SVM map
  ws.scratch.swap(ws.mapped);  // scratch and scratch2 are free again here
  ws.mapped.resize(x.size() + ws.scratch.size());
  std::copy(x.begin(), x.end(), ws.mapped.begin());
  std::copy(ws.scratch.begin(), ws.scratch.end(), ws.mapped.begin() + x.size());
}

double HybridRslClassifier::predict_proba_mapped(std::span<const double> mapped) const {
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
  return std::make_unique<HybridRslClassifier>(
      HybridRslConfig{forest_.config(), svm_.config(), meta_.core().config()});
}

void HybridRslClassifier::save_state(io::BinaryWriter& writer) const {
  forest_.save_state(writer);
  svm_.save_state(writer);
  meta_.save_state(writer);
}

void HybridRslClassifier::load_state(io::BinaryReader& reader,
                                     const std::shared_ptr<const SvmFeatureMap>& svm_map) {
  forest_.load_state(reader, svm_map);
  svm_.load_state(reader, svm_map);
  meta_.load_state(reader, svm_map);
}

}  // namespace aqua::ml
