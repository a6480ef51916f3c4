#include "networks/builtin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "hydraulics/inp_io.hpp"
#include "hydraulics/solver.hpp"
#include "networks/generator.hpp"

namespace aqua::networks {
namespace {

using hydraulics::LinkType;
using hydraulics::NodeType;

TEST(EpaNet, PublishedElementCounts) {
  const auto net = make_epa_net();
  EXPECT_EQ(net.num_nodes(), 96u);
  EXPECT_EQ(net.count_links(LinkType::kPipe), 118u);
  EXPECT_EQ(net.count_links(LinkType::kPump), 2u);
  EXPECT_EQ(net.count_links(LinkType::kValve), 1u);
  EXPECT_EQ(net.count_nodes(NodeType::kTank), 3u);
  EXPECT_EQ(net.count_nodes(NodeType::kReservoir), 2u);
  EXPECT_EQ(net.count_nodes(NodeType::kJunction), 91u);
}

TEST(WsscSubnet, PublishedElementCounts) {
  const auto net = make_wssc_subnet();
  EXPECT_EQ(net.num_nodes(), 299u);
  EXPECT_EQ(net.count_links(LinkType::kPipe), 316u);
  EXPECT_EQ(net.count_links(LinkType::kValve), 2u);
  EXPECT_EQ(net.count_nodes(NodeType::kReservoir), 1u);
  EXPECT_EQ(net.count_nodes(NodeType::kTank), 0u);
}

TEST(BuiltinNetworks, AreConnectedAndValid) {
  EXPECT_NO_THROW(make_epa_net().validate());
  EXPECT_NO_THROW(make_wssc_subnet().validate());
}

TEST(BuiltinNetworks, DeterministicConstruction) {
  EXPECT_EQ(hydraulics::to_inp(make_epa_net()), hydraulics::to_inp(make_epa_net()));
  EXPECT_EQ(hydraulics::to_inp(make_wssc_subnet()), hydraulics::to_inp(make_wssc_subnet()));
}

TEST(BuiltinNetworks, ServicePressuresAreRealistic) {
  for (const auto& net : {make_epa_net(), make_wssc_subnet()}) {
    hydraulics::GgaSolver solver(net);
    const auto state = solver.solve_snapshot();
    ASSERT_TRUE(state.converged) << net.name();
    for (const auto v : net.junction_ids()) {
      EXPECT_GT(state.pressure[v], 15.0) << net.name() << " node " << v;
      EXPECT_LT(state.pressure[v], 120.0) << net.name() << " node " << v;
    }
  }
}

TEST(BuiltinNetworks, JunctionsHaveDemandsAndCoordinates) {
  const auto net = make_wssc_subnet();
  double total_demand = 0.0;
  for (const auto v : net.junction_ids()) {
    const auto& node = net.node(v);
    total_demand += node.base_demand;
    EXPECT_GE(node.base_demand, 0.0);
  }
  EXPECT_GT(total_demand, 0.05);  // ~300 junctions at >= 0.15 L/s
  // Coordinates span a nontrivial area (needed for tweets and the DEM).
  double min_x = 1e18, max_x = -1e18;
  for (const auto& node : net.nodes()) {
    min_x = std::min(min_x, node.x);
    max_x = std::max(max_x, node.x);
  }
  EXPECT_GT(max_x - min_x, 1000.0);
}

TEST(Generator, DiurnalPatternHasUnitMean) {
  const auto pattern = diurnal_pattern();
  ASSERT_EQ(pattern.multipliers.size(), 24u);
  double sum = 0.0;
  for (double m : pattern.multipliers) sum += m;
  EXPECT_NEAR(sum / 24.0, 1.0, 1e-12);
  // Morning peak exceeds overnight trough.
  EXPECT_GT(pattern.multipliers[7], pattern.multipliers[2]);
}

TEST(Generator, GridSkeletonCounts) {
  hydraulics::Network net("gen");
  GridSkeletonSpec spec;
  spec.rows = 5;
  spec.cols = 6;
  spec.extra_loops = 7;
  const auto skeleton = build_grid_skeleton(net, spec);
  EXPECT_EQ(skeleton.grid_nodes.size(), 30u);
  EXPECT_EQ(skeleton.num_pipes, 29u + 7u);
  EXPECT_EQ(net.num_links(), skeleton.num_pipes);
  EXPECT_TRUE(net.to_graph().is_connected());
}

TEST(Generator, GridRejectsTooManyLoops) {
  hydraulics::Network net("gen");
  GridSkeletonSpec spec;
  spec.rows = 2;
  spec.cols = 2;
  spec.extra_loops = 100;
  EXPECT_THROW(build_grid_skeleton(net, spec), InvalidArgument);
}

TEST(Generator, TerrainIsSmooth) {
  // Neighboring samples differ by much less than the relief amplitude.
  const double a = terrain_elevation(100.0, 100.0, 10.0, 20.0);
  const double b = terrain_elevation(110.0, 100.0, 10.0, 20.0);
  EXPECT_LT(std::abs(a - b), 1.0);
  // Terrain stays within [base, base + ~2.2 * relief].
  for (double x = -500.0; x < 3000.0; x += 137.0) {
    for (double y = -500.0; y < 3000.0; y += 151.0) {
      const double z = terrain_elevation(x, y, 10.0, 20.0);
      EXPECT_GT(z, 9.0);
      EXPECT_LT(z, 60.0);
    }
  }
}

TEST(Generator, SeedChangesLayout) {
  hydraulics::Network a("a"), b("b");
  GridSkeletonSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.extra_loops = 2;
  spec.seed = 1;
  build_grid_skeleton(a, spec);
  spec.seed = 2;
  build_grid_skeleton(b, spec);
  // Same counts, different jittered coordinates.
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  bool any_different = false;
  for (std::size_t v = 0; v < a.num_nodes(); ++v) {
    any_different = any_different || a.node(v).x != b.node(v).x;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace aqua::networks
