#include "flood/flood_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "flood/dem.hpp"
#include "networks/builtin.hpp"

namespace aqua::flood {
namespace {

TEST(Dem, CoversNetworkBoundingBox) {
  const auto net = networks::make_wssc_subnet();
  const Dem dem(net, 40, 40, 100.0);
  EXPECT_EQ(dem.rows(), 40u);
  EXPECT_EQ(dem.cols(), 40u);
  EXPECT_GT(dem.cell_size_x(), 0.0);
  // Every junction falls inside the grid.
  for (const auto v : net.junction_ids()) {
    const auto [r, c] = dem.cell_of(net.node(v).x, net.node(v).y);
    EXPECT_LT(r, dem.rows());
    EXPECT_LT(c, dem.cols());
  }
}

TEST(Dem, InterpolatesNearNodeElevations) {
  const auto net = networks::make_wssc_subnet();
  const Dem dem(net, 60, 60, 50.0);
  // At a junction's own cell the IDW estimate should be close to the
  // junction elevation.
  double worst = 0.0;
  for (const auto v : net.junction_ids()) {
    const auto& node = net.node(v);
    const auto [r, c] = dem.cell_of(node.x, node.y);
    worst = std::max(worst, std::abs(dem.elevation(r, c) - node.elevation));
  }
  EXPECT_LT(worst, 8.0);  // within the local terrain relief
}

TEST(Dem, ElevationRangeIsSane) {
  const auto net = networks::make_wssc_subnet();
  const Dem dem(net, 30, 30);
  EXPECT_GT(dem.min_elevation(), -10.0);
  EXPECT_LT(dem.max_elevation(), 100.0);
  EXPECT_LT(dem.min_elevation(), dem.max_elevation());
}

TEST(Dem, CellOfClampsOutOfRange) {
  const auto net = networks::make_epa_net();
  const Dem dem(net, 10, 10);
  const auto [r, c] = dem.cell_of(-1e9, 1e9);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(r, 9u);
}

TEST(Dem, Validation) {
  const auto net = networks::make_epa_net();
  EXPECT_THROW(Dem(net, 1, 10), InvalidArgument);
}

class FloodTest : public ::testing::Test {
 protected:
  FloodTest() : net_(networks::make_wssc_subnet()), dem_(net_, 50, 50, 80.0) {}

  FloodSource source_at_junction(std::size_t index, double rate) const {
    const auto v = net_.junction_ids()[index];
    return {net_.node(v).x, net_.node(v).y, rate};
  }

  hydraulics::Network net_;
  Dem dem_;
};

TEST_F(FloodTest, NoSourcesNoWater) {
  FloodOptions options;
  options.duration_s = 600.0;
  const auto result = simulate_flood(dem_, {}, options);
  EXPECT_DOUBLE_EQ(result.max_depth(), 0.0);
  EXPECT_EQ(result.wet_cells(), 0u);
}

TEST_F(FloodTest, MassIsConserved) {
  FloodOptions options;
  options.duration_s = 1800.0;
  options.time_step_s = 2.0;
  const double rate = 0.05;
  const auto result = simulate_flood(dem_, {source_at_junction(100, rate)}, options);
  const double injected = rate * options.duration_s;
  const double ponded = result.total_volume(dem_.cell_size_x() * dem_.cell_size_y());
  EXPECT_NEAR(ponded, injected, 0.005 * injected);
}

TEST_F(FloodTest, FloodSpreadsFromSource) {
  FloodOptions options;
  options.duration_s = 1800.0;
  const auto result = simulate_flood(dem_, {source_at_junction(100, 0.05)}, options);
  EXPECT_GT(result.wet_cells(0.005), 3u);  // more than just the source cell
  EXPECT_GT(result.max_depth(), 0.0);
}

TEST_F(FloodTest, BiggerLeakFloodsMore) {
  FloodOptions options;
  options.duration_s = 1200.0;
  const auto small = simulate_flood(dem_, {source_at_junction(50, 0.01)}, options);
  const auto large = simulate_flood(dem_, {source_at_junction(50, 0.08)}, options);
  EXPECT_GT(large.wet_cells(0.01), small.wet_cells(0.01));
  EXPECT_GT(large.max_depth(), small.max_depth());
}

TEST_F(FloodTest, TwoSourcesBothFlood) {
  FloodOptions options;
  options.duration_s = 1200.0;
  const auto result = simulate_flood(
      dem_, {source_at_junction(20, 0.04), source_at_junction(250, 0.04)}, options);
  // Both source cells are wet.
  const auto v1 = net_.junction_ids()[20];
  const auto v2 = net_.junction_ids()[250];
  const auto [r1, c1] = dem_.cell_of(net_.node(v1).x, net_.node(v1).y);
  const auto [r2, c2] = dem_.cell_of(net_.node(v2).x, net_.node(v2).y);
  EXPECT_GT(result.depth(r1, c1), 0.0);
  EXPECT_GT(result.depth(r2, c2), 0.0);
}

TEST_F(FloodTest, WaterPondsDownhill) {
  // The deepest water should not sit above the source's water surface:
  // max-depth cell's surface must be <= source cell surface + epsilon.
  FloodOptions options;
  options.duration_s = 2400.0;
  const auto source = source_at_junction(150, 0.06);
  const auto result = simulate_flood(dem_, {source}, options);
  const auto [sr, sc] = dem_.cell_of(source.x, source.y);
  double deepest_surface = -1e18;
  for (std::size_t r = 0; r < dem_.rows(); ++r) {
    for (std::size_t c = 0; c < dem_.cols(); ++c) {
      if (result.depth(r, c) > 0.01) {
        deepest_surface = std::max(deepest_surface, dem_.elevation(r, c));
      }
    }
  }
  // Wet cells must be at or below the source surface elevation (water does
  // not climb hills).
  EXPECT_LE(deepest_surface,
            dem_.elevation(sr, sc) + result.depth(sr, sc) + 0.5);
}

TEST_F(FloodTest, InfiltrationDrainsWater) {
  FloodOptions wet_options;
  wet_options.duration_s = 1200.0;
  FloodOptions draining = wet_options;
  draining.infiltration_m_per_s = 1e-5;
  const auto source = source_at_junction(60, 0.03);
  const auto wet = simulate_flood(dem_, {source}, wet_options);
  const auto drained = simulate_flood(dem_, {source}, draining);
  const double area = dem_.cell_size_x() * dem_.cell_size_y();
  EXPECT_LT(drained.total_volume(area), wet.total_volume(area));
}

TEST_F(FloodTest, Validation) {
  FloodOptions bad;
  bad.time_step_s = 0.0;
  EXPECT_THROW(simulate_flood(dem_, {}, bad), InvalidArgument);
  // The step count duration / step is converted to size_t; an infinite or
  // huge quotient has no such value.
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> horizons[] = {
      {inf, 2.0}, {1e300, 2.0}, {3600.0, 1e-300}, {3600.0, inf}};
  for (const auto& [duration, step] : horizons) {
    FloodOptions horizon;
    horizon.duration_s = duration;
    horizon.time_step_s = step;
    EXPECT_THROW(simulate_flood(dem_, {}, horizon), InvalidArgument) << duration << " / " << step;
  }
  FloodOptions options;
  EXPECT_THROW(simulate_flood(dem_, {{0.0, 0.0, -1.0}}, options), InvalidArgument);
}

}  // namespace
}  // namespace aqua::flood
