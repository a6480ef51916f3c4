#include "ml/linear_models.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::ml {

void write_sgd_config(io::BinaryWriter& writer, const SgdConfig& config) {
  writer.write_u64(config.epochs);
  writer.write_u64(config.batch_size);
  writer.write_f64(config.learning_rate);
  writer.write_f64(config.l2);
  writer.write_u64(config.seed);
}

SgdConfig read_sgd_config(io::BinaryReader& reader) {
  SgdConfig config;
  config.epochs = reader.read_u64();
  config.batch_size = reader.read_u64();
  config.learning_rate = reader.read_f64();
  config.l2 = reader.read_f64();
  config.seed = reader.read_u64();
  return config;
}

double sigmoid(double z) noexcept {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

namespace detail {

void LinearModelCore::fit(const Matrix& x, const Labels& y) {
  scaler_.fit(x);
  train(scaler_.transform(x), y);
}

void LinearModelCore::fit_standardized(const Matrix& xs, const Labels& y) {
  scaler_ = StandardScaler{};
  train(xs, y);
}

void LinearModelCore::train(const Matrix& xs, const Labels& y) {
  const std::size_t n = xs.rows(), d = xs.cols();
  const auto [w_neg, w_pos] = balanced_class_weights(y);

  weights_.assign(d, 0.0);
  bias_ = 0.0;
  std::vector<double> m(d + 1, 0.0), v(d + 1, 0.0);  // Adam moments (last = bias)
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(config_.seed);

  std::size_t t = 0;
  std::vector<double> grad(d + 1, 0.0);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (std::size_t k = start; k < end; ++k) {
        const auto row = xs.row(order[k]);
        const bool positive = y[order[k]] != 0;
        const double weight = positive ? w_pos : w_neg;
        double z = bias_;
        for (std::size_t c = 0; c < d; ++c) z += weights_[c] * row[c];
        // dLoss/dz per loss family; targets are {0,1} for squared and
        // logistic, {-1,+1} for hinge.
        double dz = 0.0;
        switch (loss_) {
          case LinearLoss::kSquared:
            dz = z - (positive ? 1.0 : 0.0);
            break;
          case LinearLoss::kLogistic:
            dz = sigmoid(z) - (positive ? 1.0 : 0.0);
            break;
          case LinearLoss::kHinge: {
            const double target = positive ? 1.0 : -1.0;
            dz = (target * z < 1.0) ? -target : 0.0;
            break;
          }
        }
        dz *= weight;
        for (std::size_t c = 0; c < d; ++c) grad[c] += dz * row[c];
        grad[d] += dz;
      }
      const auto batch = static_cast<double>(end - start);
      ++t;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
      for (std::size_t c = 0; c <= d; ++c) {
        double g = grad[c] / batch;
        if (c < d) g += config_.l2 * weights_[c];
        m[c] = kBeta1 * m[c] + (1.0 - kBeta1) * g;
        v[c] = kBeta2 * v[c] + (1.0 - kBeta2) * g * g;
        const double step = config_.learning_rate * (m[c] / bc1) / (std::sqrt(v[c] / bc2) + kEps);
        if (c < d) {
          weights_[c] -= step;
        } else {
          bias_ -= step;
        }
      }
    }
  }
}

void LinearModelCore::save(io::BinaryWriter& writer) const {
  writer.write_u8(static_cast<std::uint8_t>(loss_));
  write_sgd_config(writer, config_);
  scaler_.save(writer);
  writer.write_f64_vector(weights_);
  writer.write_f64(bias_);
}

void LinearModelCore::load(io::BinaryReader& reader) {
  if (reader.read_u8() != static_cast<std::uint8_t>(loss_)) {
    throw io::SerializationError("malformed linear-model loss tag");
  }
  config_ = read_sgd_config(reader);
  scaler_.load(reader);
  weights_ = reader.read_f64_vector();
  bias_ = reader.read_f64();
}

double LinearModelCore::decision(std::span<const double> x) const {
  const std::vector<double> xs = scaler_.transform_row(x);
  double z = bias_;
  for (std::size_t c = 0; c < xs.size(); ++c) z += weights_[c] * xs[c];
  return z;
}

double LinearModelCore::decision_pretransformed(std::span<const double> xs) const {
  AQUA_REQUIRE(xs.size() == weights_.size(), "pretransformed feature size mismatch");
  double z = bias_;
  for (std::size_t c = 0; c < xs.size(); ++c) z += weights_[c] * xs[c];
  return z;
}

}  // namespace detail

namespace {

/// Shared-map acceptance for the linear family: an owner of the same
/// concrete type whose scaler state is bitwise identical.
template <typename Classifier>
bool linear_accepts_input_map(const detail::LinearModelCore& core,
                              const BinaryClassifier& owner) {
  const auto* peer = dynamic_cast<const Classifier*>(&owner);
  return peer != nullptr && core.scaler().identical(peer->core().scaler());
}

/// Loads a LinearR / LogisticR core and checks that it standardizes the
/// width its weights take, so decision() cannot read past them.
void load_standardizing_core(detail::LinearModelCore& core, io::BinaryReader& reader) {
  core.load(reader);
  if (!core.scaler().fitted() || core.weights().size() != core.scaler().mean().size()) {
    throw io::SerializationError("malformed linear-model state: weight count differs from its "
                                 "scaler");
  }
}

}  // namespace

LinearRegressionClassifier::LinearRegressionClassifier(SgdConfig config)
    : core_(detail::LinearLoss::kSquared, config) {}

void LinearRegressionClassifier::fit_checked(const Matrix& x, const Labels& y, const FitStore&) {
  core_.fit(x, y);
}

double LinearRegressionClassifier::predict_proba(std::span<const double> x) const {
  return std::clamp(core_.decision(x), 0.0, 1.0);
}

bool LinearRegressionClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  return linear_accepts_input_map<LinearRegressionClassifier>(core_, owner);
}

void LinearRegressionClassifier::map_input(std::span<const double> x,
                                           PredictWorkspace& ws) const {
  core_.scaler().transform_row_into(x, ws.mapped);
}

double LinearRegressionClassifier::predict_proba_mapped(std::span<const double> mapped) const {
  return std::clamp(core_.decision_pretransformed(mapped), 0.0, 1.0);
}

std::unique_ptr<BinaryClassifier> LinearRegressionClassifier::clone_config() const {
  return std::make_unique<LinearRegressionClassifier>(core_.config());
}

void LinearRegressionClassifier::save_state(io::BinaryWriter& writer) const {
  core_.save(writer);
}

void LinearRegressionClassifier::load_state(io::BinaryReader& reader,
                                            const std::shared_ptr<const SvmFeatureMap>&) {
  load_standardizing_core(core_, reader);
}

LogisticRegressionClassifier::LogisticRegressionClassifier(SgdConfig config)
    : core_(detail::LinearLoss::kLogistic, config) {}

void LogisticRegressionClassifier::fit_checked(const Matrix& x, const Labels& y,
                                               const FitStore&) {
  core_.fit(x, y);
}

double LogisticRegressionClassifier::predict_proba(std::span<const double> x) const {
  return sigmoid(core_.decision(x));
}

bool LogisticRegressionClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  return linear_accepts_input_map<LogisticRegressionClassifier>(core_, owner);
}

void LogisticRegressionClassifier::map_input(std::span<const double> x,
                                             PredictWorkspace& ws) const {
  core_.scaler().transform_row_into(x, ws.mapped);
}

double LogisticRegressionClassifier::predict_proba_mapped(std::span<const double> mapped) const {
  return sigmoid(core_.decision_pretransformed(mapped));
}

std::unique_ptr<BinaryClassifier> LogisticRegressionClassifier::clone_config() const {
  return std::make_unique<LogisticRegressionClassifier>(core_.config());
}

void LogisticRegressionClassifier::save_state(io::BinaryWriter& writer) const {
  core_.save(writer);
}

void LogisticRegressionClassifier::load_state(io::BinaryReader& reader,
                                              const std::shared_ptr<const SvmFeatureMap>&) {
  load_standardizing_core(core_, reader);
}

}  // namespace aqua::ml
