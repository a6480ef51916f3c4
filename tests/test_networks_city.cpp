// Tests for the parametric city generator (networks/generator.hpp):
// determinism, structure accounting, spec validation with strong exception
// safety, and hydraulic solvability of a small city.
#include "networks/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "gga_oracle.hpp"
#include "hydraulics/network.hpp"
#include "hydraulics/solver.hpp"

namespace aqua::networks {
namespace {

using hydraulics::Network;
using hydraulics::NodeId;

CitySpec small_city_spec() {
  CitySpec spec;
  spec.district_rows = 2;
  spec.district_cols = 2;
  spec.district_grid = 7;  // 4 districts x 49 junctions
  spec.seed = 42;
  return spec;
}

TEST(CityGenerator, DeterministicBitIdentical) {
  Network first("city-a"), second("city-b");
  const CityNetwork ra = make_city(first, small_city_spec());
  const CityNetwork rb = make_city(second, small_city_spec());

  ASSERT_EQ(first.num_nodes(), second.num_nodes());
  ASSERT_EQ(first.num_links(), second.num_links());
  EXPECT_EQ(ra.num_junctions, rb.num_junctions);
  for (NodeId v = 0; v < first.num_nodes(); ++v) {
    const auto& a = first.node(v);
    const auto& b = second.node(v);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    // Bit-identical, not approximately equal: the generator must replay
    // the exact same RNG draws.
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.elevation, b.elevation);
    EXPECT_EQ(a.base_demand, b.base_demand);
    EXPECT_EQ(a.demand_pattern, b.demand_pattern);
  }
  for (std::size_t l = 0; l < first.num_links(); ++l) {
    const auto& a = first.link(l);
    const auto& b = second.link(l);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.diameter, b.diameter);
    EXPECT_EQ(a.roughness, b.roughness);
  }
}

TEST(CityGenerator, SeedChangesTheCity) {
  Network first, second;
  auto spec = small_city_spec();
  make_city(first, spec);
  spec.seed = 43;
  make_city(second, spec);
  ASSERT_EQ(first.num_nodes(), second.num_nodes());  // structure counts match
  bool any_difference = false;
  for (NodeId v = 0; v < first.num_nodes() && !any_difference; ++v) {
    any_difference = first.node(v).x != second.node(v).x;
  }
  EXPECT_TRUE(any_difference);
}

TEST(CityGenerator, StructureCountsAddUp) {
  Network net;
  const auto spec = small_city_spec();
  const CityNetwork city = make_city(net, spec);

  const std::size_t districts = spec.district_rows * spec.district_cols;
  const std::size_t g = spec.district_grid;
  EXPECT_EQ(city.num_districts, districts);
  EXPECT_EQ(city.num_junctions, districts * g * g);
  EXPECT_EQ(city.num_reservoirs, districts);
  EXPECT_EQ(city.num_tanks, districts);
  // Macro-grid 4-neighborhood: rows*(cols-1) + (rows-1)*cols trunk mains.
  EXPECT_EQ(city.num_trunk_mains, spec.district_rows * (spec.district_cols - 1) +
                                      (spec.district_rows - 1) * spec.district_cols);

  EXPECT_EQ(net.num_nodes(), city.num_junctions + city.num_reservoirs + city.num_tanks);
  // Per district: skeleton pipes + reservoir feed + tank riser.
  EXPECT_EQ(net.num_links(), city.num_pipes + 2 * districts + city.num_trunk_mains);
  net.validate();
}

TEST(CityGenerator, RejectsBadSpecs) {
  Network net;
  CitySpec spec = small_city_spec();
  spec.district_grid = 3;
  EXPECT_THROW(make_city(net, spec), InvalidArgument);
  spec = small_city_spec();
  spec.district_rows = 0;
  EXPECT_THROW(make_city(net, spec), InvalidArgument);
  spec = small_city_spec();
  spec.loop_fraction = 1.5;
  EXPECT_THROW(make_city(net, spec), InvalidArgument);
}

TEST(GridSkeleton, ValidationHappensBeforeMutation) {
  // Strong exception safety: an infeasible spec must be rejected before the
  // first junction lands in the network.
  Network net("untouched");
  GridSkeletonSpec spec;
  spec.rows = 3;
  spec.cols = 3;
  spec.extra_loops = 1000;  // 3x3 grid has 12 candidate edges, needs 8 + 1000
  EXPECT_THROW(build_grid_skeleton(net, spec), InvalidArgument);
  EXPECT_EQ(net.num_nodes(), 0u);
  EXPECT_EQ(net.num_links(), 0u);

  spec.rows = 1;  // under the 2x2 minimum
  EXPECT_THROW(build_grid_skeleton(net, spec), InvalidArgument);
  EXPECT_EQ(net.num_nodes(), 0u);
}

TEST(GridSkeleton, HonorsOriginAndPrefixes) {
  Network net;
  GridSkeletonSpec spec;
  spec.rows = 3;
  spec.cols = 3;
  spec.extra_loops = 2;
  spec.origin_x_m = 5000.0;
  spec.origin_y_m = -2000.0;
  spec.jitter_frac = 0.0;
  spec.junction_prefix = "D7_J";
  spec.pipe_prefix = "D7_P";
  const GridSkeleton skeleton = build_grid_skeleton(net, spec);
  EXPECT_EQ(net.node(skeleton.grid_nodes.front()).name, "D7_J0_0");
  EXPECT_EQ(net.node(skeleton.grid_nodes.front()).x, 5000.0);
  EXPECT_EQ(net.node(skeleton.grid_nodes.front()).y, -2000.0);
  EXPECT_EQ(net.link(0).name, "D7_P0");
}

TEST(CityGenerator, SmallCitySatisfiesNetworkEquations) {
  Network net;
  make_city(net, small_city_spec());
  const auto state = hydraulics::oracle::expect_satisfies_network_equations(net);

  // Gravity-fed design: every junction keeps positive service pressure.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node(v).has_fixed_head()) {
      EXPECT_GT(state.pressure[v], 0.0) << "pressure at node " << v;
    }
  }
}

TEST(CitySpecForNodes, HitsTargetWithinTolerance) {
  for (const std::size_t target : {1000u, 3000u, 10000u, 20000u, 50000u}) {
    const CitySpec spec = city_spec_for_nodes(target);
    const std::size_t districts = spec.district_rows * spec.district_cols;
    const std::size_t junctions = districts * spec.district_grid * spec.district_grid;
    const double ratio = static_cast<double>(junctions) / static_cast<double>(target);
    EXPECT_GT(ratio, 0.8) << "target " << target;
    EXPECT_LT(ratio, 1.25) << "target " << target;
  }
}

}  // namespace
}  // namespace aqua::networks
