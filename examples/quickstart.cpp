// Quickstart: build a water network, simulate a day of operation with a
// scheduled pipe leak, and inspect the hydraulic consequences — the
// 10-minute tour of the EPANET++ substrate underneath AquaSCALE.
//
//   ./example_quickstart
#include <cstdio>

#include "core/aquascale.hpp"

using namespace aqua;

int main() {
  // 1. Build a small network by hand: one elevated reservoir feeding three
  //    junctions through a looped main.
  hydraulics::Network net("quickstart");
  const int diurnal = net.add_pattern(networks::diurnal_pattern());
  const auto source = net.add_reservoir("SOURCE", 60.0);
  const auto a = net.add_junction("A", 12.0, /*demand L/s=*/4.0, diurnal);
  const auto b = net.add_junction("B", 15.0, 3.0, diurnal);
  const auto c = net.add_junction("C", 10.0, 5.0, diurnal);
  net.add_pipe("MAIN", source, a, 400.0, 0.40, 130.0);
  net.add_pipe("AB", a, b, 250.0, 0.25, 120.0);
  net.add_pipe("BC", b, c, 250.0, 0.25, 120.0);
  net.add_pipe("AC", a, c, 300.0, 0.30, 125.0);  // the loop

  // 2. Steady-state snapshot: who gets what pressure right now?
  hydraulics::GgaSolver solver(net);
  const auto snapshot = solver.solve_snapshot();
  std::printf("healthy snapshot (converged in %zu Newton iterations):\n", snapshot.iterations);
  for (const auto v : net.junction_ids()) {
    std::printf("  %s: head %.2f m, pressure %.2f m\n", net.node(v).name.c_str(),
                snapshot.head[v], snapshot.pressure[v]);
  }

  // 3. Extended-period simulation with a leak: junction B springs a leak
  //    (emitter, Eq. 1 of the paper: Q = EC * p^0.5) at 6 am.
  hydraulics::SimulationOptions options;
  options.duration_s = 24.0 * 3600.0;  // one day
  options.hydraulic_step_s = 900.0;    // 15-minute IoT cadence
  hydraulics::Simulation sim(net, options);
  const hydraulics::LeakEvent leak{b, /*EC=*/0.004, /*beta=*/0.5, /*start=*/6.0 * 3600.0};
  const auto results = sim.run({.leaks = {&leak, 1}});

  const auto before = results.step_at(6.0 * 3600.0 - 900.0);
  const auto after = results.step_at(6.0 * 3600.0 + 900.0);
  std::printf("\nleak at B starting 06:00 (EC = 0.004):\n");
  std::printf("  pressure at B 05:45 -> 06:15: %.2f -> %.2f m\n",
              results.pressure(before, b), results.pressure(after, b));
  std::printf("  leak outflow at 06:15: %.1f L/s\n",
              results.emitter_outflow(after, b) * 1000.0);
  std::printf("  water lost over the day: %.1f m^3\n", results.leaked_volume());

  // 4. Round-trip the network through the INP dialect.
  const std::string inp = hydraulics::to_inp(net);
  const auto parsed = hydraulics::from_inp(inp);
  std::printf("\nINP round trip: %zu nodes, %zu links — OK\n", parsed.num_nodes(),
              parsed.num_links());
  return 0;
}
