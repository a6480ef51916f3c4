// Human input modeling (Sec. III-D): Twitter users act as sensors. Leak-
// related tweets arrive as a Poisson process (arrival rate λ per IoT slot);
// a fraction p_e are false positives ("LeakFinderST - innovative leak
// detection..." style noise); confidence in a region grows with the tweet
// count as p_t = 1 − p_e^k (Eq. 3). Each tweet's location induces a clique
// c = {v : |l_c − l_v| < γ} of candidate nodes (γ = data coarseness).
//
// The paper prints Eq. 4 as P(k in n slots) = (nλ)^k e^{−nλ} / (n+1)^k,
// which is not a normalized pmf; `printed_eq4` reproduces it verbatim for
// the record, while the generator samples the standard Poisson
// distribution of mean nλ, pmf (nλ)^k e^{−nλ} / k!, with Rng::poisson
// (documented deviation, DESIGN.md §6).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "hydraulics/network.hpp"

namespace aqua::fusion {

struct TweetModelConfig {
  double arrival_rate_per_slot = 1.0;  // λ, "1 per 15 minutes" (Sec. V-A)
  double false_positive_rate = 0.3;    // p_e
  double location_scatter_m = 15.0;    // how far from the pipe people post
  double clique_radius_m = 30.0;       // γ
};

struct Tweet {
  double x = 0.0, y = 0.0;  // posting location
  std::size_t slot = 0;     // IoT slot index of arrival
  bool genuine = false;     // relates to a real leak (unknown to inference)
};

/// A clique c: nodes within γ of a tweet cluster, with its confidence
/// p_t = 1 − p_e^k from the number of supporting tweets (Eq. 3).
struct Clique {
  std::vector<hydraulics::NodeId> nodes;
  double x = 0.0, y = 0.0;
  std::size_t tweet_count = 0;
  double confidence = 0.0;
};

/// Eq. 3: confidence after k tweets.
double tweet_confidence(double false_positive_rate, std::size_t k);

/// Eq. 4 exactly as printed in the paper (not a normalized pmf; see above).
double printed_eq4(std::size_t k, std::size_t n, double lambda);

class TweetGenerator {
 public:
  explicit TweetGenerator(TweetModelConfig config = {});

  const TweetModelConfig& config() const noexcept { return config_; }

  /// Tweets accumulated over `elapsed_slots` slots after the leaks start.
  /// Genuine tweets scatter around the true leak locations; false
  /// positives are uniform over the network's bounding box, mixed so the
  /// expected genuine fraction is (1 - p_e).
  std::vector<Tweet> generate(const hydraulics::Network& network,
                              const std::vector<hydraulics::NodeId>& true_leaks,
                              std::size_t elapsed_slots, Rng& rng) const;

  /// Groups tweets into cliques: tweets within γ of each other merge
  /// (single-linkage), and each cluster collects the nodes within γ of its
  /// centroid. Cliques with no nodes in range are dropped.
  std::vector<Clique> build_cliques(const hydraulics::Network& network,
                                    const std::vector<Tweet>& tweets) const;

 private:
  TweetModelConfig config_;
};

}  // namespace aqua::fusion
