#include "graph/shortest_path.hpp"

#include <functional>
#include <queue>

#include "common/error.hpp"

namespace aqua::graph {

std::vector<double> dijkstra(const Graph& g, VertexId source) {
  AQUA_REQUIRE(source < g.num_vertices(), "dijkstra source out of range");
  std::vector<double> distance(g.num_vertices(), kUnreachable);

  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  distance[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (dist > distance[v]) continue;  // stale entry
    for (const auto& inc : g.neighbors(v)) {
      const double candidate = dist + g.edge(inc.edge).weight;
      if (candidate < distance[inc.neighbor]) {
        distance[inc.neighbor] = candidate;
        heap.push({candidate, inc.neighbor});
      }
    }
  }
  return distance;
}

}  // namespace aqua::graph
