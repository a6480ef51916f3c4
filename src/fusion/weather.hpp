// Weather information modeling (Sec. III-C). "If the ambient temperature
// is below 20°F, pipes may be subject to freezing"; freezing raises break
// probability, and the evaluation drives multi-failure scenarios from a
// freeze process with p_v(freeze) = 0.8 and p_v(leak|freeze) = 0.9. The
// weather expert's probability is combined with the IoT profile's output
// by Bayes' aggregation of expert odds (Eq. 5-6, after Clemen & Winkler).
//
// This module also provides a seasonal temperature generator and the
// freeze-break process used to regenerate the Fig. 3 relationship between
// ambient temperature and breaks per day.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace aqua::fusion {

/// Freezing threshold from the paper, in Fahrenheit.
inline constexpr double kFreezeThresholdF = 20.0;

struct FreezeModel {
  double p_freeze = 0.8;           // P(frozen | T < 20F), per node
  double p_leak_given_freeze = 0.9;  // P(leak | frozen)

  /// Samples the per-node frozen indicator for `num_nodes` nodes given the
  /// ambient temperature. Above the threshold nothing freezes.
  std::vector<std::uint8_t> sample_frozen(double temperature_f, std::size_t num_nodes,
                                          Rng& rng) const;
};

/// Bayes aggregation of independent expert probabilities for a binary
/// event (Eq. 5-6): the posterior odds are the product of the experts'
/// odds; p* = q*/(1+q*). Inputs are clamped away from {0,1} so a single
/// over-confident expert cannot produce NaN. With two agreeing experts at
/// 0.6 the fused probability exceeds 0.6 — "more sources of information
/// means more certainty".
double bayes_aggregate(const std::vector<double>& expert_probabilities);

/// Two-expert convenience overload (IoT profile + weather expert).
double bayes_aggregate(double p_a, double p_b);

/// Seasonal + diurnal-noise daily temperature series [deg F], centered on
/// a mid-Atlantic winter-to-spring climate so cold snaps below 20 F occur.
class TemperatureModel {
 public:
  explicit TemperatureModel(double annual_mean_f = 55.0, double annual_amplitude_f = 28.0,
                            double daily_noise_f = 7.0);

  /// Mean temperature of `day` (0 = January 1st).
  double seasonal_mean_f(std::size_t day) const noexcept;
  /// One sampled daily temperature.
  double sample_day_f(std::size_t day, Rng& rng) const noexcept;

 private:
  double mean_;
  double amplitude_;
  double noise_;
};

/// One simulated day of the freeze-break process (for Fig. 3).
struct BreakDay {
  double temperature_f = 0.0;
  std::size_t breaks = 0;
};

/// Simulates `days` days over a system of `num_nodes` candidate joints:
/// each day samples a temperature, freezes nodes per FreezeModel below the
/// threshold, and counts freeze-induced breaks plus a small
/// temperature-independent background rate. Reproduces the Fig. 3 shape
/// (breaks/day falling steeply with temperature).
std::vector<BreakDay> simulate_break_history(const TemperatureModel& temperature,
                                             const FreezeModel& freeze, std::size_t num_nodes,
                                             std::size_t days, double background_rate_per_day,
                                             std::uint64_t seed);

}  // namespace aqua::fusion
