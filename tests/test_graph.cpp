#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/shortest_path.hpp"

namespace aqua::graph {
namespace {

Graph diamond() {
  // 0 -1- 1 -1- 3, 0 -1- 2 -5- 3: shortest 0->3 is via 1 (length 2).
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  return g;
}

TEST(Graph, EdgeAndNeighborBookkeeping) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].neighbor, 1u);
  EXPECT_EQ(g.neighbors(1)[0].neighbor, 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
}

TEST(Graph, SelfLoopCountsOnce) {
  Graph g(1);
  g.add_edge(0, 0, 1.0);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
}

TEST(Graph, RejectsBadEndpoints) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2, 1.0), InvalidArgument);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), InvalidArgument);
}

TEST(Graph, ConnectedComponents) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 1.0);
  const auto [labels, count] = g.connected_components();
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, SingleComponentIsConnected) {
  EXPECT_TRUE(diamond().is_connected());
}

TEST(Graph, EmptyGraphIsConnected) {
  Graph g(0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Dijkstra, FindsShortestDistances) {
  const Graph g = diamond();
  const auto distance = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(distance[0], 0.0);
  EXPECT_DOUBLE_EQ(distance[1], 1.0);
  EXPECT_DOUBLE_EQ(distance[2], 1.0);
  EXPECT_DOUBLE_EQ(distance[3], 2.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(dijkstra(g, 0)[2], kUnreachable);
}

TEST(Dijkstra, PrefersMultiHopWhenCheaper) {
  Graph g(3);
  g.add_edge(0, 2, 10.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(dijkstra(g, 0)[2], 5.0);
}

TEST(Dijkstra, SourceOutOfRangeThrows) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(dijkstra(g, 5), InvalidArgument);
}

TEST(Dijkstra, SymmetricOnUndirectedGraph) {
  const Graph g = diamond();
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(dijkstra(g, u)[v], dijkstra(g, v)[u]);
    }
  }
  EXPECT_DOUBLE_EQ(dijkstra(g, 2)[1], 2.0);
}

}  // namespace
}  // namespace aqua::graph
