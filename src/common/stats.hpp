// Small descriptive-statistics helpers used by experiment harnesses
// (means, percentiles, an online accumulator).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aqua {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values) noexcept;

/// Linear-interpolated percentile, q in [0, 100]. Copies and sorts.
double percentile(std::span<const double> values, double q);

/// Online count / mean / min / max accumulator (Welford's mean update).
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace aqua
