// Fig. 2 — "Failure scenarios with corresponding changes on pressure head":
// the sum of pressure-head changes of nodes within a distance range of
// e1.l, as a function of distance to e1.l, for (1) a single leak, (2) two
// concurrent leaks, (3) three concurrent leaks. In the single-leak case
// the change decays with distance (the learnable pattern); with multiple
// concurrent leaks the interaction destroys the monotone pattern.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/aquascale.hpp"
#include "graph/shortest_path.hpp"

using namespace aqua;

namespace {

/// Sum of |pressure change| over nodes whose shortest-path distance to the
/// anchor lies in [lo, hi).
double banded_change(const hydraulics::Network& net,
                     const std::vector<double>& distances,
                     const std::vector<double>& before,
                     const std::vector<double>& after, double lo, double hi) {
  double sum = 0.0;
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type != hydraulics::NodeType::kJunction) continue;
    if (distances[v] < lo || distances[v] >= hi) continue;
    sum += std::abs(after[v] - before[v]);
  }
  return sum;
}

}  // namespace

int main() {
  bench::banner("Fig. 2", "pressure-change sum vs distance to e1.l, 1/2/3 concurrent leaks");

  const auto net = networks::make_epa_net();
  const auto junctions = net.junction_ids();
  // e1 in the grid interior; e2/e3 elsewhere (same layout as the paper's
  // schematic: concurrent leaks at separated joints).
  const hydraulics::NodeId e1 = junctions[45];
  const hydraulics::NodeId e2 = junctions[20];
  const hydraulics::NodeId e3 = junctions[75];

  const auto distances = graph::dijkstra(net.to_graph(), e1);

  const double leak_start = 2.0 * 3600.0;
  auto run_scenario = [&](const std::vector<hydraulics::NodeId>& leaks) {
    hydraulics::SimulationOptions options;
    options.duration_s = 3.0 * 3600.0;
    std::vector<hydraulics::LeakEvent> events;
    for (const auto node : leaks) events.push_back({node, 0.006, 0.5, leak_start});
    const auto results = hydraulics::Simulation(net, options).run({.leaks = events});
    const std::size_t slot = results.step_at(leak_start);
    std::vector<double> before(net.num_nodes()), after(net.num_nodes());
    for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
      before[v] = results.pressure(slot - 1, v);
      after[v] = results.pressure(slot + 1, v);
    }
    return std::make_pair(before, after);
  };

  const auto s1 = run_scenario({e1});
  const auto s2 = run_scenario({e1, e2});
  const auto s3 = run_scenario({e1, e2, e3});

  Table table({"distance band [m]", "scenario 1 (1 leak)", "scenario 2 (2 leaks)",
               "scenario 3 (3 leaks)"});
  const double band = 200.0;
  for (int b = 0; b < 8; ++b) {
    const double lo = b * band, hi = lo + band;
    table.add_row({std::to_string(static_cast<int>(lo)) + "-" + std::to_string(static_cast<int>(hi)),
                   Table::num(banded_change(net, distances, s1.first, s1.second, lo, hi), 4),
                   Table::num(banded_change(net, distances, s2.first, s2.second, lo, hi), 4),
                   Table::num(banded_change(net, distances, s3.first, s3.second, lo, hi), 4)});
  }
  table.print();

  // Shape check mirroring the paper's narrative.
  const double near1 = banded_change(net, distances, s1.first, s1.second, 0.0, band);
  const double far1 = banded_change(net, distances, s1.first, s1.second, 5 * band, 6 * band);
  std::printf("\nsingle-leak decay (band 0 vs band 5): %.4f -> %.4f (%s)\n", near1, far1,
              near1 > far1 ? "decays with distance, as in the paper" : "UNEXPECTED");
  return 0;
}
