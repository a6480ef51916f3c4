// Undirected weighted multigraph used to represent water-network topology
// (vertices = pipe joints, edges = pipelines; edge weight = pipe length).
// The paper's distance notion — "the shortest path between two nodes,
// [where] the distance between two adjacent nodes is the length of the
// connection pipeline" (Sec. III-A) — is computed over this structure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aqua::graph {

using VertexId = std::size_t;
using EdgeId = std::size_t;

struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 1.0;
};

/// Undirected weighted multigraph with O(1) incidence lookups.
class Graph {
 public:
  explicit Graph(std::size_t num_vertices = 0);

  std::size_t num_vertices() const noexcept { return adjacency_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Adds an undirected edge; returns its id. Self-loops and parallel edges
  /// are allowed (real networks have parallel mains).
  EdgeId add_edge(VertexId u, VertexId v, double weight = 1.0);

  const Edge& edge(EdgeId id) const;

  struct Incidence {
    EdgeId edge;
    VertexId neighbor;
  };

  /// Edges incident to `v` with the opposite endpoint.
  std::span<const Incidence> neighbors(VertexId v) const;

  /// All edges in insertion order.
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Connected-component label per vertex (labels are 0..k-1 in discovery
  /// order) and the number of components.
  std::pair<std::vector<std::size_t>, std::size_t> connected_components() const;

  bool is_connected() const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Incidence>> adjacency_;
};

}  // namespace aqua::graph
