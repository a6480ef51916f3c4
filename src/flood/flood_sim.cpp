#include "flood/flood_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace aqua::flood {

double FloodResult::max_depth() const noexcept {
  double m = 0.0;
  for (double d : depth_) m = std::max(m, d);
  return m;
}

std::size_t FloodResult::wet_cells(double threshold) const noexcept {
  std::size_t n = 0;
  for (double d : depth_) n += (d > threshold);
  return n;
}

double FloodResult::total_volume(double cell_area_m2) const noexcept {
  double v = 0.0;
  for (double d : depth_) v += d;
  return v * cell_area_m2;
}

FloodResult simulate_flood(const Dem& dem, const std::vector<FloodSource>& sources,
                           const FloodOptions& options) {
  AQUA_REQUIRE(std::isfinite(options.time_step_s) && options.time_step_s > 0.0 &&
                   std::isfinite(options.duration_s) && options.duration_s > 0.0,
               "flood timing must be positive and finite");
  // The step count below is converted to size_t, which must hold it.
  AQUA_REQUIRE(options.duration_s / options.time_step_s <
                   static_cast<double>(std::numeric_limits<std::size_t>::max()),
               "flood duration / time step is too many steps");
  const std::size_t rows = dem.rows(), cols = dem.cols();
  FloodResult result(rows, cols);
  auto& h = result.data();

  const double cell_area = dem.cell_size_x() * dem.cell_size_y();
  std::vector<double> flux(rows * cols, 0.0);  // net volume change per step

  const auto steps = static_cast<std::size_t>(options.duration_s / options.time_step_s);
  auto index = [cols](std::size_t r, std::size_t c) { return r * cols + c; };

  // Precompute source cells.
  struct CellSource {
    std::size_t idx;
    double rate;
  };
  std::vector<CellSource> cell_sources;
  for (const auto& src : sources) {
    AQUA_REQUIRE(src.rate_m3s >= 0.0, "flood source rate must be non-negative");
    const auto [r, c] = dem.cell_of(src.x, src.y);
    cell_sources.push_back({index(r, c), src.rate_m3s});
  }

  for (std::size_t step = 0; step < steps; ++step) {
    std::fill(flux.begin(), flux.end(), 0.0);

    // Inflows.
    for (const auto& src : cell_sources) flux[src.idx] += src.rate * options.time_step_s;

    // Diffusive-wave exchange across the two forward faces of every cell
    // (each face visited exactly once => antisymmetric => conservative).
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t i = index(r, c);
        const double eta_i = dem.elevation(r, c) + h[i];
        auto exchange = [&](std::size_t j, std::size_t rj, std::size_t cj, double face_width,
                            double distance) {
          const double eta_j = dem.elevation(rj, cj) + h[j];
          const double d_eta = eta_i - eta_j;
          // Upwind depth: only the higher-surface cell's water conveys.
          const double conveying_depth = d_eta > 0.0 ? h[i] : h[j];
          if (conveying_depth <= options.dry_threshold_m) return;
          const double slope = std::abs(d_eta) / distance;
          // Manning-style: q = k h^(5/3) sqrt(S) per unit width.
          double volume = options.manning_k * std::pow(conveying_depth, 5.0 / 3.0) *
                          std::sqrt(slope) * face_width * options.time_step_s;
          // Stability/positivity: never move more than a quarter of the
          // donor's water or half the head difference in one step.
          const double donor_volume = conveying_depth * cell_area;
          volume = std::min(volume, 0.25 * donor_volume);
          volume = std::min(volume, 0.5 * std::abs(d_eta) * cell_area);
          if (d_eta > 0.0) {
            flux[i] -= volume;
            flux[j] += volume;
          } else {
            flux[i] += volume;
            flux[j] -= volume;
          }
        };
        if (c + 1 < cols) exchange(index(r, c + 1), r, c + 1, dem.cell_size_y(), dem.cell_size_x());
        if (r + 1 < rows) exchange(index(r + 1, c), r + 1, c, dem.cell_size_x(), dem.cell_size_y());
      }
    }

    // Apply fluxes and infiltration.
    const double infiltration = options.infiltration_m_per_s * options.time_step_s;
    for (std::size_t i = 0; i < h.size(); ++i) {
      h[i] = std::max(0.0, h[i] + flux[i] / cell_area - infiltration);
    }
  }
  return result;
}

}  // namespace aqua::flood
