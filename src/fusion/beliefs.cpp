#include "fusion/beliefs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "fusion/weather.hpp"

namespace aqua::fusion {

double binary_entropy(double p) {
  AQUA_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of [0,1]");
  double h = 0.0;
  if (p > 0.0) h -= p * std::log(p);
  if (p < 1.0) h -= (1.0 - p) * std::log(1.0 - p);
  return h;
}

std::vector<std::uint8_t> Beliefs::predicted_set() const {
  std::vector<std::uint8_t> mask(p_leak.size());
  for (std::size_t v = 0; v < p_leak.size(); ++v) mask[v] = p_leak[v] > 0.5 ? 1 : 0;
  return mask;
}

double Beliefs::entropy(std::size_t v) const {
  AQUA_REQUIRE(v < p_leak.size(), "label index out of range");
  return binary_entropy(p_leak[v]);
}

double Beliefs::total_entropy() const {
  double sum = 0.0;
  for (double p : p_leak) sum += binary_entropy(p);
  return sum;
}

std::size_t apply_weather_update(Beliefs& beliefs, const std::vector<std::uint8_t>& frozen,
                                 double p_leak_given_freeze) {
  AQUA_REQUIRE(frozen.size() == beliefs.size(), "frozen mask size mismatch");
  AQUA_REQUIRE(p_leak_given_freeze > 0.0 && p_leak_given_freeze < 1.0,
               "p(leak|freeze) must be in (0,1)");
  std::size_t updated = 0;
  for (std::size_t v = 0; v < beliefs.size(); ++v) {
    if (frozen[v] == 0) continue;
    beliefs.p_leak[v] = bayes_aggregate(beliefs.p_leak[v], p_leak_given_freeze);
    ++updated;
  }
  return updated;
}

double higher_order_potential(const Beliefs& beliefs, const LabelClique& clique,
                              double entropy_threshold) {
  AQUA_REQUIRE(!clique.labels.empty(), "clique must contain labels");
  bool any_predicted = false;
  bool all_determinate = true;
  for (std::size_t v : clique.labels) {
    AQUA_REQUIRE(v < beliefs.size(), "clique label out of range");
    any_predicted = any_predicted || beliefs.p_leak[v] > 0.5;
    // "<=" (vs the paper's strict "<") so a fully determinate belief
    // (H = 0) at Gamma = 0 counts as determinate; with strict comparison a
    // degenerate p in {0,1} could neither satisfy Eq. 10 nor be tuned by
    // Algorithm 2 (which forces only H > Gamma), leaving the energy
    // pinned at infinity.
    all_determinate = all_determinate && beliefs.entropy(v) <= entropy_threshold;
  }
  if (any_predicted) return 0.0;
  if (all_determinate) return 0.0;
  return std::numeric_limits<double>::infinity();
}

double total_energy(const Beliefs& beliefs, const std::vector<LabelClique>& cliques,
                    double entropy_threshold) {
  double energy = beliefs.total_entropy();
  for (const auto& clique : cliques) {
    energy += higher_order_potential(beliefs, clique, entropy_threshold);
  }
  return energy;
}

HumanTuningResult apply_human_tuning(Beliefs& beliefs, const std::vector<LabelClique>& cliques,
                                     double entropy_threshold) {
  HumanTuningResult result;
  for (const auto& clique : cliques) {
    AQUA_REQUIRE(!clique.labels.empty(), "clique must contain labels");
    bool any_predicted = false;
    for (std::size_t v : clique.labels) {
      AQUA_REQUIRE(v < beliefs.size(), "clique label out of range");
      any_predicted = any_predicted || beliefs.p_leak[v] > 0.5;
    }
    if (any_predicted) {
      ++result.cliques_consistent;  // Φ_c = 0, nothing to do
      continue;
    }
    // v* = argmax_{v ∈ c} H(y_v): the most uncertain member is the most
    // plausible hidden leak.
    std::size_t best = clique.labels.front();
    double best_entropy = -1.0;
    for (std::size_t v : clique.labels) {
      const double h = beliefs.entropy(v);
      if (h > best_entropy) {
        best_entropy = h;
        best = v;
      }
    }
    if (best_entropy > entropy_threshold) {
      // Force the event: p_{v*}(1) = 1, entropy collapses to 0 and the
      // infinite potential disappears.
      beliefs.p_leak[best] = 1.0;
      result.added_labels.push_back(best);
    } else {
      ++result.cliques_determinate;  // Φ_c = 0 via the Γ branch of Eq. 10
    }
  }
  return result;
}

}  // namespace aqua::fusion
