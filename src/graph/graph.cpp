#include "graph/graph.hpp"

#include <queue>

#include "common/error.hpp"

namespace aqua::graph {

Graph::Graph(std::size_t num_vertices) : adjacency_(num_vertices) {}

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  AQUA_REQUIRE(u < num_vertices() && v < num_vertices(), "edge endpoint out of range");
  AQUA_REQUIRE(weight >= 0.0, "edge weight must be non-negative");
  const EdgeId id = edges_.size();
  edges_.push_back({u, v, weight});
  adjacency_[u].push_back({id, v});
  if (u != v) adjacency_[v].push_back({id, u});
  return id;
}

const Edge& Graph::edge(EdgeId id) const {
  AQUA_REQUIRE(id < edges_.size(), "edge id out of range");
  return edges_[id];
}

std::span<const Graph::Incidence> Graph::neighbors(VertexId v) const {
  AQUA_REQUIRE(v < num_vertices(), "vertex out of range");
  return adjacency_[v];
}

std::pair<std::vector<std::size_t>, std::size_t> Graph::connected_components() const {
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> label(num_vertices(), kUnvisited);
  std::size_t next_label = 0;
  std::queue<VertexId> frontier;
  for (VertexId start = 0; start < num_vertices(); ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    frontier.push(start);
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      for (const auto& inc : adjacency_[v]) {
        if (label[inc.neighbor] == kUnvisited) {
          label[inc.neighbor] = next_label;
          frontier.push(inc.neighbor);
        }
      }
    }
    ++next_label;
  }
  return {std::move(label), next_label};
}

bool Graph::is_connected() const {
  if (num_vertices() == 0) return true;
  return connected_components().second == 1;
}

}  // namespace aqua::graph
