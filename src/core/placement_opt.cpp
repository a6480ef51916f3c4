#include "core/placement_opt.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua::core {

GreedyPlacementResult place_sensors_greedy(const SnapshotBatch& batch, std::size_t count,
                                           std::size_t elapsed_index,
                                           const GreedyPlacementOptions& options) {
  const auto& network = batch.network();
  const std::size_t num_nodes = network.num_nodes();
  const std::size_t num_links = network.num_links();
  const std::size_t num_candidates = num_nodes + num_links;
  const std::size_t scenarios = batch.size();
  AQUA_REQUIRE(scenarios > 0, "greedy placement needs simulated scenarios");
  AQUA_REQUIRE(elapsed_index < batch.elapsed_slots().size(), "elapsed index out of range");
  count = std::clamp<std::size_t>(count, 1, num_candidates);

  // Detection matrix: candidate -> bitset of scenarios whose clean Δ-signal
  // clears the SNR threshold at that candidate.
  std::vector<std::vector<bool>> detects(num_candidates, std::vector<bool>(scenarios, false));
  for (std::size_t s = 0; s < scenarios; ++s) {
    const auto& snap = batch.snapshots(s);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      const double before = snap.before_pressure[v];
      const double delta = snap.after_pressure[elapsed_index][v] - before;
      const double sigma = options.noise.sigma(sensing::SensorKind::kPressure, before);
      detects[v][s] = std::abs(delta) > options.snr_threshold * sigma;
    }
    for (std::size_t l = 0; l < num_links; ++l) {
      const double before = snap.before_flow[l];
      const double delta = snap.after_flow[elapsed_index][l] - before;
      const double sigma = options.noise.sigma(sensing::SensorKind::kFlow, before);
      detects[num_nodes + l][s] = std::abs(delta) > options.snr_threshold * sigma;
    }
  }

  GreedyPlacementResult result;
  result.total_scenarios = scenarios;
  std::vector<bool> covered(scenarios, false);
  std::vector<bool> taken(num_candidates, false);
  std::size_t covered_count = 0;

  for (std::size_t pick = 0; pick < count; ++pick) {
    std::size_t best = num_candidates;
    std::size_t best_gain = 0;
    for (std::size_t candidate = 0; candidate < num_candidates; ++candidate) {
      if (taken[candidate]) continue;
      std::size_t gain = 0;
      for (std::size_t s = 0; s < scenarios; ++s) {
        gain += (!covered[s] && detects[candidate][s]);
      }
      if (best == num_candidates || gain > best_gain) {
        best = candidate;
        best_gain = gain;
      }
    }
    taken[best] = true;
    for (std::size_t s = 0; s < scenarios; ++s) {
      if (detects[best][s] && !covered[s]) {
        covered[s] = true;
        ++covered_count;
      }
    }
    result.sensors.sensors.push_back(
        best < num_nodes ? sensing::make_sensor(network, sensing::SensorKind::kPressure, best)
                         : sensing::make_sensor(network, sensing::SensorKind::kFlow,
                                                best - num_nodes));
    result.coverage_curve.push_back(covered_count);
  }
  return result;
}

}  // namespace aqua::core
