#include "hydraulics/network.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace aqua::hydraulics {
namespace {

Network tiny() {
  Network net("tiny");
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 10.0, 2.0);
  const NodeId b = net.add_junction("B", 12.0, 1.0);
  net.add_pipe("P1", r, a, 100.0, 0.3, 120.0);
  net.add_pipe("P2", a, b, 150.0, 0.25, 110.0);
  return net;
}

TEST(Network, BuildersPopulateCounts) {
  const Network net = tiny();
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_EQ(net.num_links(), 2u);
  EXPECT_EQ(net.count_nodes(NodeType::kJunction), 2u);
  EXPECT_EQ(net.count_nodes(NodeType::kReservoir), 1u);
  EXPECT_EQ(net.count_links(LinkType::kPipe), 2u);
}

TEST(Network, DemandConvertsFromLps) {
  const Network net = tiny();
  EXPECT_DOUBLE_EQ(net.node(net.node_id("A")).base_demand, 0.002);
}

TEST(Network, LookupByName) {
  const Network net = tiny();
  EXPECT_EQ(net.node(net.node_id("B")).name, "B");
  EXPECT_EQ(net.link(net.link_id("P2")).name, "P2");
  EXPECT_THROW(net.node_id("missing"), NotFound);
  EXPECT_THROW(net.link_id("missing"), NotFound);
}

TEST(Network, DuplicateNamesRejected) {
  Network net("dup");
  net.add_reservoir("R", 10.0);
  EXPECT_THROW(net.add_junction("R", 0.0), InvalidArgument);
  const NodeId a = net.add_junction("A", 0.0);
  const NodeId b = net.add_junction("B", 0.0);
  net.add_pipe("P", a, b, 10.0, 0.1, 100.0);
  EXPECT_THROW(net.add_pipe("P", a, b, 10.0, 0.1, 100.0), InvalidArgument);
}

TEST(Network, SelfLoopRejected) {
  Network net("loop");
  const NodeId a = net.add_junction("A", 0.0);
  EXPECT_THROW(net.add_pipe("P", a, a, 10.0, 0.1, 100.0), InvalidArgument);
}

TEST(Network, BadPipeAttributesRejected) {
  Network net("bad");
  const NodeId a = net.add_junction("A", 0.0);
  const NodeId b = net.add_junction("B", 0.0);
  EXPECT_THROW(net.add_pipe("P", a, b, -5.0, 0.1, 100.0), InvalidArgument);
  EXPECT_THROW(net.add_pipe("P", a, b, 5.0, 0.0, 100.0), InvalidArgument);
  EXPECT_THROW(net.add_pipe("P", a, b, 5.0, 0.1, -1.0), InvalidArgument);
}

TEST(Network, TankLevelOrderingEnforced) {
  Network net("tank");
  EXPECT_THROW(net.add_tank("T", 10.0, 5.0, 6.0, 8.0, 10.0), InvalidArgument);  // init < min
  EXPECT_NO_THROW(net.add_tank("T", 10.0, 5.0, 2.0, 8.0, 10.0));
}

TEST(Network, EmitterOnlyAtJunctions) {
  Network net = tiny();
  EXPECT_THROW(net.set_emitter(net.node_id("R"), 0.001), InvalidArgument);
  const NodeId a = net.node_id("A");
  net.set_emitter(a, 0.002);
  EXPECT_DOUBLE_EQ(net.node(a).emitter_coefficient, 0.002);
  net.clear_emitters();
  for (const Node& n : net.nodes()) EXPECT_EQ(n.emitter_coefficient, 0.0);
}

TEST(Network, PatternDrivesDemand) {
  Network net("patterned");
  const int p = net.add_pattern({"diurnal", {0.5, 2.0}});
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 10.0, 4.0, p);
  net.add_pipe("P", r, a, 100.0, 0.3, 120.0);
  EXPECT_DOUBLE_EQ(net.demand_at(a, 0), 0.004 * 0.5);
  EXPECT_DOUBLE_EQ(net.demand_at(a, 1), 0.004 * 2.0);
  EXPECT_DOUBLE_EQ(net.demand_at(a, 2), 0.004 * 0.5);  // wraps
  EXPECT_DOUBLE_EQ(net.demand_at(r, 0), 0.0);          // sources have no demand
}

TEST(Network, PatternValidation) {
  Network net("p");
  EXPECT_THROW(net.add_pattern({"empty", {}}), InvalidArgument);
  EXPECT_THROW(net.add_pattern({"neg", {1.0, -0.1}}), InvalidArgument);
  EXPECT_THROW(net.add_junction("A", 0.0, 1.0, 7), InvalidArgument);  // unknown pattern
}

TEST(Network, ToGraphMirrorsTopology) {
  const Network net = tiny();
  const auto g = net.to_graph();
  EXPECT_EQ(g.num_vertices(), net.num_nodes());
  EXPECT_EQ(g.num_edges(), net.num_links());
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 100.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Network, JunctionIdsInOrder) {
  const Network net = tiny();
  const auto junctions = net.junction_ids();
  ASSERT_EQ(junctions.size(), 2u);
  EXPECT_EQ(net.node(junctions[0]).name, "A");
  EXPECT_EQ(net.node(junctions[1]).name, "B");
}

TEST(Network, ValidatePassesOnSaneNetwork) { EXPECT_NO_THROW(tiny().validate()); }

TEST(Network, ValidateRejectsSourcelessNetwork) {
  Network net("nosource");
  const NodeId a = net.add_junction("A", 0.0);
  const NodeId b = net.add_junction("B", 0.0);
  net.add_pipe("P", a, b, 10.0, 0.1, 100.0);
  EXPECT_THROW(net.validate(), InvalidArgument);
}

TEST(Network, ValidateRejectsDisconnected) {
  Network net("split");
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 0.0);
  net.add_pipe("P", r, a, 10.0, 0.1, 100.0);
  net.add_junction("Island", 0.0);
  const NodeId i2 = net.add_junction("Island2", 0.0);
  net.add_pipe("P2", net.node_id("Island"), i2, 10.0, 0.1, 100.0);
  EXPECT_THROW(net.validate(), InvalidArgument);
}

TEST(Network, PumpCurveValidation) {
  Network net("pump");
  const NodeId r = net.add_reservoir("R", 5.0);
  const NodeId a = net.add_junction("A", 0.0);
  EXPECT_THROW(net.add_pump("PU", r, a, PumpCurve{0.0, 100.0, 2.0}), InvalidArgument);
  EXPECT_NO_THROW(net.add_pump("PU", r, a, PumpCurve{40.0, 100.0, 2.0}));
}

}  // namespace
}  // namespace aqua::hydraulics
