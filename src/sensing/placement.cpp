#include "sensing/placement.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/kmedoids.hpp"

namespace aqua::sensing {
namespace {

/// Normalized (zero-mean, unit-variance) time series — clustering should
/// group locations by the *shape* of their hydraulic behavior, not by the
/// very different magnitudes of pressure heads and flow rates.
std::vector<double> normalized_series(std::vector<double> series) {
  double sum = 0.0;
  for (double v : series) sum += v;
  const double mean = sum / static_cast<double>(series.size());
  double ss = 0.0;
  for (double v : series) ss += (v - mean) * (v - mean);
  const double sd = std::sqrt(ss / static_cast<double>(series.size()));
  for (double& v : series) v = sd > 1e-12 ? (v - mean) / sd : 0.0;
  return series;
}

}  // namespace

SensorSet place_sensors_kmedoids(const hydraulics::Network& network,
                                 const hydraulics::SimulationResults& baseline, std::size_t count,
                                 std::uint64_t seed) {
  const std::size_t num_candidates = network.num_nodes() + network.num_links();
  count = std::clamp<std::size_t>(count, 1, num_candidates);
  AQUA_REQUIRE(baseline.num_nodes() == network.num_nodes() &&
                   baseline.num_links() == network.num_links(),
               "baseline results do not match the network");

  const std::size_t steps = baseline.num_steps();
  std::vector<std::vector<double>> points;
  points.reserve(num_candidates);
  for (std::size_t v = 0; v < network.num_nodes(); ++v) {
    std::vector<double> series(steps);
    for (std::size_t s = 0; s < steps; ++s) series[s] = baseline.pressure(s, v);
    points.push_back(normalized_series(std::move(series)));
  }
  for (std::size_t l = 0; l < network.num_links(); ++l) {
    std::vector<double> series(steps);
    for (std::size_t s = 0; s < steps; ++s) series[s] = baseline.flow(s, l);
    points.push_back(normalized_series(std::move(series)));
  }

  graph::KMedoidsOptions options;
  options.seed = seed;
  const auto clustering = graph::kmedoids(points, count, options);

  SensorSet set;
  set.sensors.reserve(count);
  for (std::size_t medoid : clustering.medoids) {
    set.sensors.push_back(
        medoid < network.num_nodes()
            ? make_sensor(network, SensorKind::kPressure, medoid)
            : make_sensor(network, SensorKind::kFlow, medoid - network.num_nodes()));
  }
  return set;
}

SensorSet place_sensors_random(const hydraulics::Network& network, std::size_t count,
                               std::uint64_t seed) {
  const std::size_t num_candidates = network.num_nodes() + network.num_links();
  count = std::clamp<std::size_t>(count, 1, num_candidates);
  Rng rng(seed);
  SensorSet set;
  for (std::size_t pick : rng.sample_without_replacement(num_candidates, count)) {
    set.sensors.push_back(pick < network.num_nodes()
                              ? make_sensor(network, SensorKind::kPressure, pick)
                              : make_sensor(network, SensorKind::kFlow, pick - network.num_nodes()));
  }
  return set;
}

std::size_t sensors_for_percentage(const hydraulics::Network& network, double percent) {
  AQUA_REQUIRE(percent > 0.0 && percent <= 100.0, "percentage must be in (0, 100]");
  const auto total = static_cast<double>(network.num_nodes() + network.num_links());
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(percent / 100.0 * total)));
}

}  // namespace aqua::sensing
