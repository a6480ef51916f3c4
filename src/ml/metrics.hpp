// Evaluation metrics. The paper's headline metric (Sec. V-B) is the
// Hamming Score: "the number of leak events correctly predicted divided by
// the union of predicted and true leak events" — i.e. the Jaccard index of
// the predicted and true leak sets, bounded by 1.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"

namespace aqua::ml {

/// Jaccard-style Hamming score of one multi-label prediction:
/// |pred ∧ true| / |pred ∨ true|; both-empty scores 1 (nothing to find,
/// nothing falsely flagged).
double hamming_score(const Labels& predicted, const Labels& truth);

/// Mean Hamming score across samples.
double mean_hamming_score(const std::vector<Labels>& predicted, const std::vector<Labels>& truth);

struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
};

/// Micro-averaged precision/recall/F1 over all samples and labels.
PrecisionRecall micro_precision_recall(const std::vector<Labels>& predicted,
                                       const std::vector<Labels>& truth);

/// Detection hit rate: the fraction of samples whose prediction overlaps
/// the truth at all (|pred ∧ true| > 0) — "did Phase II point at least one
/// finger at a real failure", the robustness benches' coarse accuracy.
/// Samples with an all-zero truth count as hits iff the prediction is also
/// all-zero.
double detection_hit_rate(const std::vector<Labels>& predicted,
                          const std::vector<Labels>& truth);

}  // namespace aqua::ml
