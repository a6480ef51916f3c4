#include "ml/classifier.hpp"

#include <typeinfo>

#include "common/error.hpp"
#include "ml/svm.hpp"

namespace aqua::ml {

FitStore make_fit_store(const BinaryClassifier& classifier, const Matrix& x) {
  FitStore store;
  if (const std::size_t bins = classifier.fit_store_bins(); bins > 0) store.bins.fit(x, bins);
  if (const SvmConfig* svm = classifier.fit_store_svm_map()) {
    store.svm_map = SvmFeatureMap::fit(x, *svm, store.svm_features);
  }
  return store;
}

void BinaryClassifier::fit(const Matrix& x, const Labels& y) {
  fit(x, y, make_fit_store(*this, x));
}

void BinaryClassifier::fit(const Matrix& x, const Labels& y, const FitStore& store) {
  AQUA_REQUIRE(x.rows() == y.size(), "feature/label row mismatch");
  AQUA_REQUIRE(x.rows() > 0, "empty training set");
  const double rate = positive_rate(y);
  AQUA_REQUIRE(rate > 0.0 && rate < 1.0, "fit needs both classes in y");
  fit_checked(x, y, store);
}

bool BinaryClassifier::accepts_input_map(const BinaryClassifier& owner) const {
  return typeid(owner) == typeid(*this);
}

std::pair<double, double> balanced_class_weights(const Labels& y) {
  std::size_t positives = 0;
  for (auto v : y) positives += (v != 0);
  const std::size_t negatives = y.size() - positives;
  if (positives == 0 || negatives == 0) return {1.0, 1.0};
  const auto n = static_cast<double>(y.size());
  return {n / (2.0 * static_cast<double>(negatives)), n / (2.0 * static_cast<double>(positives))};
}

double positive_rate(const Labels& y) {
  if (y.empty()) return 0.0;
  std::size_t positives = 0;
  for (auto v : y) positives += (v != 0);
  return static_cast<double>(positives) / static_cast<double>(y.size());
}

}  // namespace aqua::ml
