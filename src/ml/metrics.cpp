#include "ml/metrics.hpp"

#include "common/error.hpp"

namespace aqua::ml {

double hamming_score(const Labels& predicted, const Labels& truth) {
  AQUA_REQUIRE(predicted.size() == truth.size(), "label arity mismatch");
  std::size_t intersection = 0, unions = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const bool p = predicted[i] != 0, t = truth[i] != 0;
    intersection += static_cast<std::size_t>(p && t);
    unions += static_cast<std::size_t>(p || t);
  }
  return unions == 0 ? 1.0 : static_cast<double>(intersection) / static_cast<double>(unions);
}

double mean_hamming_score(const std::vector<Labels>& predicted,
                          const std::vector<Labels>& truth) {
  AQUA_REQUIRE(predicted.size() == truth.size(), "sample count mismatch");
  AQUA_REQUIRE(!predicted.empty(), "no samples");
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) sum += hamming_score(predicted[i], truth[i]);
  return sum / static_cast<double>(predicted.size());
}

PrecisionRecall micro_precision_recall(const std::vector<Labels>& predicted,
                                       const std::vector<Labels>& truth) {
  AQUA_REQUIRE(predicted.size() == truth.size(), "sample count mismatch");
  PrecisionRecall out;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    AQUA_REQUIRE(predicted[i].size() == truth[i].size(), "label arity mismatch");
    for (std::size_t j = 0; j < predicted[i].size(); ++j) {
      const bool p = predicted[i][j] != 0, t = truth[i][j] != 0;
      out.true_positives += static_cast<std::size_t>(p && t);
      out.false_positives += static_cast<std::size_t>(p && !t);
      out.false_negatives += static_cast<std::size_t>(!p && t);
    }
  }
  const auto tp = static_cast<double>(out.true_positives);
  const double pp = tp + static_cast<double>(out.false_positives);
  const double ap = tp + static_cast<double>(out.false_negatives);
  out.precision = pp > 0.0 ? tp / pp : 1.0;
  out.recall = ap > 0.0 ? tp / ap : 1.0;
  out.f1 = (out.precision + out.recall) > 0.0
               ? 2.0 * out.precision * out.recall / (out.precision + out.recall)
               : 0.0;
  return out;
}

double detection_hit_rate(const std::vector<Labels>& predicted,
                          const std::vector<Labels>& truth) {
  AQUA_REQUIRE(predicted.size() == truth.size(), "sample count mismatch");
  AQUA_REQUIRE(!predicted.empty(), "no samples");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    AQUA_REQUIRE(predicted[i].size() == truth[i].size(), "label arity mismatch");
    bool overlap = false, any_truth = false, any_pred = false;
    for (std::size_t j = 0; j < predicted[i].size(); ++j) {
      const bool p = predicted[i][j] != 0, t = truth[i][j] != 0;
      overlap = overlap || (p && t);
      any_truth = any_truth || t;
      any_pred = any_pred || p;
    }
    hits += static_cast<std::size_t>(any_truth ? overlap : !any_pred);
  }
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

}  // namespace aqua::ml
