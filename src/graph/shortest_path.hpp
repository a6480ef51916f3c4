// Shortest-path distances over pipe-length weights (Dijkstra), for the
// Fig. 2 distance-decay analysis.
#pragma once

#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace aqua::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Single-source Dijkstra with a binary heap; O((V+E) log V). Returns the
/// distance of every vertex from `source`, kUnreachable when disconnected.
std::vector<double> dijkstra(const Graph& g, VertexId source);

}  // namespace aqua::graph
