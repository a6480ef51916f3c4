#include "fusion/weather.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua::fusion {

std::vector<std::uint8_t> FreezeModel::sample_frozen(double temperature_f, std::size_t num_nodes,
                                                     Rng& rng) const {
  std::vector<std::uint8_t> frozen(num_nodes, 0);
  if (temperature_f >= kFreezeThresholdF) return frozen;
  for (auto& f : frozen) f = rng.bernoulli(p_freeze) ? 1 : 0;
  return frozen;
}

double bayes_aggregate(const std::vector<double>& expert_probabilities) {
  AQUA_REQUIRE(!expert_probabilities.empty(), "need at least one expert");
  constexpr double kClamp = 1e-6;
  double log_odds = 0.0;
  for (double p : expert_probabilities) {
    AQUA_REQUIRE(p >= 0.0 && p <= 1.0, "expert probability out of [0,1]");
    const double pc = std::clamp(p, kClamp, 1.0 - kClamp);
    log_odds += std::log(pc / (1.0 - pc));
  }
  // p* = q/(1+q) computed stably in log space.
  if (log_odds > 30.0) return 1.0 - kClamp;
  if (log_odds < -30.0) return kClamp;
  const double q = std::exp(log_odds);
  return q / (1.0 + q);
}

double bayes_aggregate(double p_a, double p_b) { return bayes_aggregate({p_a, p_b}); }

TemperatureModel::TemperatureModel(double annual_mean_f, double annual_amplitude_f,
                                   double daily_noise_f)
    : mean_(annual_mean_f), amplitude_(annual_amplitude_f), noise_(daily_noise_f) {}

double TemperatureModel::seasonal_mean_f(std::size_t day) const noexcept {
  // Coldest around mid-January (day ~15).
  const double phase = 2.0 * 3.141592653589793 * (static_cast<double>(day) - 15.0) / 365.25;
  return mean_ - amplitude_ * std::cos(phase);
}

double TemperatureModel::sample_day_f(std::size_t day, Rng& rng) const noexcept {
  return rng.normal(seasonal_mean_f(day), noise_);
}

std::vector<BreakDay> simulate_break_history(const TemperatureModel& temperature,
                                             const FreezeModel& freeze, std::size_t num_nodes,
                                             std::size_t days, double background_rate_per_day,
                                             std::uint64_t seed) {
  AQUA_REQUIRE(num_nodes > 0, "need at least one node");
  Rng rng(seed);
  std::vector<BreakDay> history(days);
  for (std::size_t d = 0; d < days; ++d) {
    history[d].temperature_f = temperature.sample_day_f(d, rng);
    std::size_t breaks = static_cast<std::size_t>(rng.poisson(background_rate_per_day));
    if (history[d].temperature_f < kFreezeThresholdF) {
      // Freeze-induced breaks: only a small fraction of frozen joints
      // actually break on a given day (continued freezing and expansion
      // takes time), so scale by a per-day burst fraction.
      constexpr double kBurstFractionPerDay = 0.0006;
      const auto frozen = freeze.sample_frozen(history[d].temperature_f, num_nodes, rng);
      for (auto f : frozen) {
        if (f != 0 && rng.bernoulli(freeze.p_leak_given_freeze * kBurstFractionPerDay)) {
          ++breaks;
        }
      }
    }
    history[d].breaks = breaks;
  }
  return history;
}

}  // namespace aqua::fusion
