// Belief-state machinery for Phase II inference (Sec. IV-B): per-node leak
// probabilities P, the predicted set S = {v : p_v(1) > p_v(0)}, binary
// entropy as the uncertainty measure (Eq. 7-8), the Bayes weather update
// (Algorithm 2 lines 6-13) and the higher-order-potential human tuning
// (Eq. 9-10, Algorithm 2 lines 14-26).
//
// Beliefs are indexed by *label index* (position in the junction list),
// not raw NodeId; the core pipeline performs the mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "fusion/human.hpp"

namespace aqua::fusion {

/// Per-label leak beliefs: p_leak[v] = p_v(1); p_v(0) = 1 - p_v(1).
struct Beliefs {
  std::vector<double> p_leak;

  std::size_t size() const noexcept { return p_leak.size(); }

  /// S = {v : p_v(1) > p_v(0)} ⇔ p_v(1) > 0.5, as a 0/1 mask.
  std::vector<std::uint8_t> predicted_set() const;

  /// Entropy H(y_v) of one node's belief (Eq. 7), in nats.
  double entropy(std::size_t v) const;

  /// Total uncertainty E[y] = Σ_v H(y_v) (Eq. 8), before potentials.
  double total_entropy() const;
};

/// Binary entropy of probability p (0 at p ∈ {0,1}, max ln2 at 0.5).
double binary_entropy(double p);

/// Weather update (Algorithm 2 lines 6-13): for every label whose node is
/// frozen, replaces p_v(1) with the Bayes aggregation of the IoT belief
/// and the weather expert p(leak|freeze). Returns the number of labels
/// updated.
std::size_t apply_weather_update(Beliefs& beliefs, const std::vector<std::uint8_t>& frozen,
                                 double p_leak_given_freeze);

/// A clique mapped into label space.
struct LabelClique {
  std::vector<std::size_t> labels;
  double confidence = 1.0;
};

/// Higher-order potential Φ_c (Eq. 10): 0 if some clique member is
/// predicted to leak, 0 if every member's entropy is below Γ (determinate
/// non-leak), +inf otherwise (inconsistent event).
double higher_order_potential(const Beliefs& beliefs, const LabelClique& clique,
                              double entropy_threshold);

/// Total energy E[y] = Σ H(y_v) + Σ Φ_c (Eq. 9). Infinite while any
/// clique is inconsistent.
double total_energy(const Beliefs& beliefs, const std::vector<LabelClique>& cliques,
                    double entropy_threshold);

struct HumanTuningResult {
  std::size_t cliques_consistent = 0;  // Φ_c already 0 via S-membership
  std::size_t cliques_determinate = 0;  // Φ_c = 0 via entropy < Γ
  std::vector<std::size_t> added_labels;  // v* forced to leak
};

/// Human-input event tuning (Algorithm 2 lines 14-26): for each
/// inconsistent clique, the member with the highest entropy is forced to
/// leak (p = 1, entropy 0), eliminating the infinite potential and
/// reducing the total energy.
HumanTuningResult apply_human_tuning(Beliefs& beliefs, const std::vector<LabelClique>& cliques,
                                     double entropy_threshold);

}  // namespace aqua::fusion
