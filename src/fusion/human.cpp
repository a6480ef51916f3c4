#include "fusion/human.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace aqua::fusion {

double tweet_confidence(double false_positive_rate, std::size_t k) {
  AQUA_REQUIRE(false_positive_rate > 0.0 && false_positive_rate < 1.0,
               "p_e must be in (0,1)");
  return 1.0 - std::pow(false_positive_rate, static_cast<double>(k));
}

double printed_eq4(std::size_t k, std::size_t n, double lambda) {
  const double nl = static_cast<double>(n) * lambda;
  return std::pow(nl, static_cast<double>(k)) * std::exp(-nl) /
         std::pow(static_cast<double>(n) + 1.0, static_cast<double>(k));
}

TweetGenerator::TweetGenerator(TweetModelConfig config) : config_(config) {
  AQUA_REQUIRE(config_.arrival_rate_per_slot >= 0.0, "arrival rate must be non-negative");
  AQUA_REQUIRE(config_.false_positive_rate > 0.0 && config_.false_positive_rate < 1.0,
               "p_e must be in (0,1)");
  AQUA_REQUIRE(config_.clique_radius_m > 0.0, "gamma must be positive");
}

std::vector<Tweet> TweetGenerator::generate(const hydraulics::Network& network,
                                            const std::vector<hydraulics::NodeId>& true_leaks,
                                            std::size_t elapsed_slots, Rng& rng) const {
  std::vector<Tweet> tweets;
  if (elapsed_slots == 0) return tweets;

  // Network bounding box (for false-positive placement).
  double min_x = std::numeric_limits<double>::max(), max_x = std::numeric_limits<double>::lowest();
  double min_y = min_x, max_y = max_x;
  for (const auto& node : network.nodes()) {
    min_x = std::min(min_x, node.x);
    max_x = std::max(max_x, node.x);
    min_y = std::min(min_y, node.y);
    max_y = std::max(max_y, node.y);
  }

  const double n_slots = static_cast<double>(elapsed_slots);
  // Genuine tweets per leak: Poisson(n * λ * (1 - p_e)); false positives:
  // Poisson(n * λ * p_e) per leak-equivalent so the expected relevant
  // fraction matches (1 - p_e) regardless of leak count.
  const double genuine_mean =
      n_slots * config_.arrival_rate_per_slot * (1.0 - config_.false_positive_rate);
  const double noise_mean = n_slots * config_.arrival_rate_per_slot *
                            config_.false_positive_rate *
                            std::max<double>(1.0, static_cast<double>(true_leaks.size()));

  for (const hydraulics::NodeId leak : true_leaks) {
    const auto& node = network.node(leak);
    const int count = rng.poisson(genuine_mean);
    for (int i = 0; i < count; ++i) {
      Tweet t;
      t.x = node.x + rng.normal(0.0, config_.location_scatter_m);
      t.y = node.y + rng.normal(0.0, config_.location_scatter_m);
      t.slot = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(elapsed_slots) - 1));
      t.genuine = true;
      tweets.push_back(t);
    }
  }
  const int noise_count = rng.poisson(noise_mean);
  for (int i = 0; i < noise_count; ++i) {
    Tweet t;
    t.x = rng.uniform(min_x, max_x);
    t.y = rng.uniform(min_y, max_y);
    t.slot = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(elapsed_slots) - 1));
    t.genuine = false;
    tweets.push_back(t);
  }
  return tweets;
}

std::vector<Clique> TweetGenerator::build_cliques(const hydraulics::Network& network,
                                                  const std::vector<Tweet>& tweets) const {
  const double gamma = config_.clique_radius_m;
  const std::size_t n = tweets.size();
  if (n == 0) return {};

  // Single-linkage clustering of tweet locations with threshold γ
  // (union-find over the O(n^2) pair distances; tweet volumes per window
  // are small).
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find_root = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = std::hypot(tweets[i].x - tweets[j].x, tweets[i].y - tweets[j].y);
      if (d < gamma) parent[find_root(i)] = find_root(j);
    }
  }

  struct Cluster {
    double sum_x = 0.0, sum_y = 0.0;
    std::size_t count = 0;
  };
  std::vector<Cluster> clusters(n);
  for (std::size_t i = 0; i < n; ++i) {
    Cluster& c = clusters[find_root(i)];
    c.sum_x += tweets[i].x;
    c.sum_y += tweets[i].y;
    ++c.count;
  }

  std::vector<Clique> cliques;
  for (std::size_t i = 0; i < n; ++i) {
    if (clusters[i].count == 0) continue;
    Clique clique;
    clique.x = clusters[i].sum_x / static_cast<double>(clusters[i].count);
    clique.y = clusters[i].sum_y / static_cast<double>(clusters[i].count);
    clique.tweet_count = clusters[i].count;
    clique.confidence = tweet_confidence(config_.false_positive_rate, clusters[i].count);
    for (hydraulics::NodeId v = 0; v < network.num_nodes(); ++v) {
      const auto& node = network.node(v);
      if (node.type != hydraulics::NodeType::kJunction) continue;
      if (std::hypot(node.x - clique.x, node.y - clique.y) < gamma) clique.nodes.push_back(v);
    }
    if (!clique.nodes.empty()) cliques.push_back(std::move(clique));
  }
  return cliques;
}

}  // namespace aqua::fusion
