#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "ml/model_io.hpp"

namespace aqua::ml {

namespace {

/// The random-Fourier-feature map z[k] = scale * cos(b[k] + W[k]·x for all
/// k, with the dot products computed four features at a time. Each dot is
/// a serial dependent chain (latency-bound at one fused multiply-add per
/// element); interleaving four independent chains hides that latency
/// without touching any chain's own operation order, so every z[k] keeps
/// the exact bits of the one-feature-at-a-time loop.
void rff_map_into(const Matrix& weights, const std::vector<double>& offsets,
                  const double* __restrict xs, std::size_t d, double scale,
                  double* __restrict z) {
  const std::size_t features = offsets.size();
  std::size_t k = 0;
  for (; k + 4 <= features; k += 4) {
    double dot0 = offsets[k];
    double dot1 = offsets[k + 1];
    double dot2 = offsets[k + 2];
    double dot3 = offsets[k + 3];
    const double* __restrict w0 = weights.row(k).data();
    const double* __restrict w1 = weights.row(k + 1).data();
    const double* __restrict w2 = weights.row(k + 2).data();
    const double* __restrict w3 = weights.row(k + 3).data();
    for (std::size_t c = 0; c < d; ++c) {
      const double x = xs[c];
      dot0 += w0[c] * x;
      dot1 += w1[c] * x;
      dot2 += w2[c] * x;
      dot3 += w3[c] * x;
    }
    z[k] = scale * std::cos(dot0);
    z[k + 1] = scale * std::cos(dot1);
    z[k + 2] = scale * std::cos(dot2);
    z[k + 3] = scale * std::cos(dot3);
  }
  for (; k < features; ++k) {
    double dot = offsets[k];
    const double* __restrict w = weights.row(k).data();
    for (std::size_t c = 0; c < d; ++c) dot += w[c] * xs[c];
    z[k] = scale * std::cos(dot);
  }
}

}  // namespace

std::shared_ptr<const SvmFeatureMap> SvmFeatureMap::fit(const Matrix& x, const SvmConfig& config,
                                                        Matrix& features) {
  auto map = std::make_shared<SvmFeatureMap>();
  if (config.rff_dimension == 0) {
    map->decision_scaler_.fit(x);
    features = map->decision_scaler_.transform(x);
    return map;
  }

  map->input_scaler_.fit(x);
  const double gamma =
      config.rff_gamma > 0.0 ? config.rff_gamma : 1.0 / static_cast<double>(x.cols());
  // W ~ N(0, 2*gamma I), b ~ U[0, 2*pi) gives E[z(x).z(y)] = exp(-gamma |x-y|^2).
  Rng rng(config.seed);
  const std::size_t dimension = config.rff_dimension;
  map->rff_weights_ = Matrix(dimension, x.cols());
  map->rff_offsets_.resize(dimension);
  const double sigma = std::sqrt(2.0 * gamma);
  for (std::size_t k = 0; k < dimension; ++k) {
    auto row = map->rff_weights_.row(k);
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] = rng.normal(0.0, sigma);
    map->rff_offsets_[k] = rng.uniform(0.0, 6.283185307179586);
  }

  Matrix rff(x.rows(), dimension);
  std::vector<double> xs;
  const double scale = std::sqrt(2.0 / static_cast<double>(dimension));
  for (std::size_t r = 0; r < x.rows(); ++r) {
    map->input_scaler_.transform_row_into(x.row(r), xs);
    rff_map_into(map->rff_weights_, map->rff_offsets_, xs.data(), xs.size(), scale,
                 rff.row(r).data());
  }
  map->decision_scaler_.fit(rff);
  features = map->decision_scaler_.transform(rff);
  return map;
}

void SvmFeatureMap::map_into(std::span<const double> x, PredictWorkspace& ws) const {
  if (rff_offsets_.empty()) {
    decision_scaler_.transform_row_into(x, ws.mapped);
    return;
  }
  input_scaler_.transform_row_into(x, ws.scratch);
  const std::size_t dimension = rff_offsets_.size();
  ws.scratch2.resize(dimension);
  const double scale = std::sqrt(2.0 / static_cast<double>(dimension));
  rff_map_into(rff_weights_, rff_offsets_, ws.scratch.data(), ws.scratch.size(), scale,
               ws.scratch2.data());
  decision_scaler_.transform_row_into(ws.scratch2, ws.mapped);
}

void SvmFeatureMap::save(io::BinaryWriter& writer) const {
  input_scaler_.save(writer);
  write_matrix(writer, rff_weights_);
  writer.write_f64_vector(rff_offsets_);
  decision_scaler_.save(writer);
}

std::shared_ptr<const SvmFeatureMap> SvmFeatureMap::load(io::BinaryReader& reader) {
  auto map = std::make_shared<SvmFeatureMap>();
  map->input_scaler_.load(reader);
  map->rff_weights_ = read_matrix(reader);
  map->rff_offsets_ = reader.read_f64_vector();
  map->decision_scaler_.load(reader);
  // map_into reads rff_weights_ rows [0, D) and columns [0, d): the input
  // scaler's width must be the weight columns, the offsets the weight
  // rows, and the decision scaler must take the D features they make.
  const std::size_t d = map->input_scaler_.mean().size();
  const std::size_t features = map->rff_offsets_.size();
  if (map->rff_weights_.cols() != d) {
    throw io::SerializationError("malformed SVM feature map: input-scaler width differs from "
                                 "RFF weight columns");
  }
  if (map->rff_weights_.rows() != features) {
    throw io::SerializationError("malformed SVM feature map: RFF weight rows differ from offsets");
  }
  const bool shaped = features > 0 ? d > 0 && map->dimension() == features
                                   : d == 0 && map->dimension() > 0;
  if (!shaped) {
    throw io::SerializationError("malformed SVM feature map: decision-scaler width differs from "
                                 "the RFF dimension");
  }
  return map;
}

SvmClassifier::SvmClassifier(SvmConfig config)
    : config_(config), core_(detail::LinearLoss::kHinge, config.sgd) {}

void SvmClassifier::fit_checked(const Matrix& x, const Labels& y, const FitStore& store) {
  fit_decisions(x, y, store);
}

std::vector<double> SvmClassifier::fit_decisions(const Matrix& x, const Labels& y,
                                                 const FitStore& store) {
  AQUA_REQUIRE(store.svm_map != nullptr && store.svm_map->input_dimension() == x.cols() &&
                   store.svm_map->rff_dimension() == config_.rff_dimension &&
                   store.svm_features.rows() == x.rows() &&
                   store.svm_features.cols() == store.svm_map->dimension(),
               "fit store lacks this SVM's feature map of the training matrix");
  map_ = store.svm_map;
  core_.fit_standardized(store.svm_features, y);
  std::vector<double> decision(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    decision[i] = core_.decision_pretransformed(store.svm_features.row(i));
  }
  fit_platt(decision, y);
  return decision;
}

void SvmClassifier::fit_platt(const std::vector<double>& decision, const Labels& y) {
  // Platt scaling: fit P(y=1|f) = sigmoid(a*f + b) by a few Newton steps on
  // the regularized targets from Platt (1999).
  const std::size_t n = decision.size();
  std::size_t positives = 0;
  for (auto v : y) positives += (v != 0);
  const double t_pos = (static_cast<double>(positives) + 1.0) / (static_cast<double>(positives) + 2.0);
  const double t_neg = 1.0 / (static_cast<double>(n - positives) + 2.0);

  double a = 1.0, b = 0.0;
  for (int iter = 0; iter < 30; ++iter) {
    double g_a = 0.0, g_b = 0.0, h_aa = 1e-9, h_ab = 0.0, h_bb = 1e-9;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = y[i] != 0 ? t_pos : t_neg;
      const double p = sigmoid(a * decision[i] + b);
      const double d1 = p - t;
      const double d2 = std::max(p * (1.0 - p), 1e-9);
      g_a += d1 * decision[i];
      g_b += d1;
      h_aa += d2 * decision[i] * decision[i];
      h_ab += d2 * decision[i];
      h_bb += d2;
    }
    const double det = h_aa * h_bb - h_ab * h_ab;
    if (std::abs(det) < 1e-15) break;
    const double da = (h_bb * g_a - h_ab * g_b) / det;
    const double db = (h_aa * g_b - h_ab * g_a) / det;
    a -= da;
    b -= db;
    if (std::abs(da) + std::abs(db) < 1e-8) break;
  }
  // Guard orientation: `a` should be positive (larger decision value =
  // more likely positive; the hinge trainer uses +1 for the positive class).
  platt_a_ = a;
  platt_b_ = b;
}

double SvmClassifier::decision_value(std::span<const double> x) const {
  PredictWorkspace ws;
  map_->map_into(x, ws);
  return core_.decision_pretransformed(ws.mapped);
}

double SvmClassifier::predict_proba(std::span<const double> x) const {
  return probability(decision_value(x));
}

bool SvmClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  const auto* peer = dynamic_cast<const SvmClassifier*>(&owner);
  return peer != nullptr && peer->map_ == map_;
}

void SvmClassifier::map_input(std::span<const double> x, PredictWorkspace& ws) const {
  map_->map_into(x, ws);
}

double SvmClassifier::predict_proba_mapped(std::span<const double> mapped) const {
  return probability(core_.decision_pretransformed(mapped));
}

std::unique_ptr<BinaryClassifier> SvmClassifier::clone_config() const {
  return std::make_unique<SvmClassifier>(config_);
}

void SvmClassifier::save_state(io::BinaryWriter& writer) const {
  writer.write_u64(config_.rff_dimension);
  writer.write_f64(config_.rff_gamma);
  writer.write_u64(config_.seed);
  core_.save(writer);  // with the SGD half of config_
  writer.write_f64(platt_a_);
  writer.write_f64(platt_b_);
}

void SvmClassifier::load_state(io::BinaryReader& reader,
                               const std::shared_ptr<const SvmFeatureMap>& svm_map) {
  config_.rff_dimension = reader.read_u64();
  config_.rff_gamma = reader.read_f64();
  config_.seed = reader.read_u64();
  core_.load(reader);
  config_.sgd = core_.config();
  platt_a_ = reader.read_f64();
  platt_b_ = reader.read_f64();
  map_ = svm_map;
  if (map_ == nullptr) {
    throw io::SerializationError("malformed SVM state: the model holds no feature map");
  }
  if (core_.weights().size() != map_->dimension()) {
    throw io::SerializationError("malformed SVM state: weight count differs from its map");
  }
  if (map_->rff_dimension() != config_.rff_dimension) {
    throw io::SerializationError("malformed SVM state: RFF dimension differs from its map");
  }
}

}  // namespace aqua::ml
