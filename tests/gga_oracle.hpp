// Solver-independent oracle for converged GGA states: instead of comparing
// one inner solver against another, it checks the network equations
// themselves. Every link must satisfy its head-loss relation (energy) and
// every junction must balance its flows against demand and emitter
// outflow (continuity).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hydraulics/headloss.hpp"
#include "hydraulics/network.hpp"
#include "hydraulics/solver.hpp"

namespace aqua::hydraulics::oracle {

/// Solves `net`'s period-0 snapshot at accuracy 1e-10 and expects every
/// link's energy residual |h_from - h_to - loss(q)| below 1e-8 m and every
/// junction's continuity residual |inflow - outflow - demand - emitter
/// outflow| below 1e-8 m^3/s (0.01 mL/s). The cases tested so far measure
/// at most 7e-11 m and 1.0e-9 m^3/s, both on WSSC-SUBNET, whose last
/// iterations run under-relaxed. Returns the state for further checks.
inline HydraulicState expect_satisfies_network_equations(const Network& net) {
  SolverOptions options;
  options.accuracy = 1e-10;
  options.max_iterations = 2000;
  const GgaSolver solver(net, options);
  const HydraulicState state = solver.solve_snapshot();
  EXPECT_TRUE(state.converged) << net.name();

  double worst_energy = 0.0;
  std::vector<double> balance(net.num_nodes(), 0.0);
  for (LinkId l = 0; l < net.num_links(); ++l) {
    const Link& link = net.link(l);
    const double q = state.flow[l];
    const double loss = link_loss(link, q).loss;
    worst_energy =
        std::max(worst_energy, std::abs(state.head[link.from] - state.head[link.to] - loss));
    balance[link.to] += q;
    balance[link.from] -= q;
  }
  double worst_continuity = 0.0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).has_fixed_head()) continue;
    const double residual = balance[v] - net.demand_at(v, 0) - state.emitter_outflow[v];
    worst_continuity = std::max(worst_continuity, std::abs(residual));
  }
  EXPECT_LT(worst_energy, 1e-8) << net.name();
  EXPECT_LT(worst_continuity, 1e-8) << net.name();
  return state;
}

}  // namespace aqua::hydraulics::oracle
