#include "hydraulics/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "gga_oracle.hpp"
#include "hydraulics/headloss.hpp"
#include "networks/builtin.hpp"

namespace aqua::hydraulics {
namespace {

/// Reservoir (head 50) -> single pipe -> junction with demand.
Network single_pipe(double demand_lps = 20.0) {
  Network net("single");
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 10.0, demand_lps);
  net.add_pipe("P", r, a, 500.0, 0.3, 120.0);
  return net;
}

TEST(GgaSolver, SinglePipeMatchesAnalyticHeadLoss) {
  const Network net = single_pipe(20.0);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  const double q = 0.020;
  EXPECT_NEAR(state.flow[0], q, 1e-6);
  const double r = hazen_williams_resistance(500.0, 0.3, 120.0);
  const double expected_head = 50.0 - r * std::pow(q, 1.852);
  EXPECT_NEAR(state.head[net.node_id("A")], expected_head, 1e-6);
  EXPECT_NEAR(state.pressure[net.node_id("A")], expected_head - 10.0, 1e-6);
}

TEST(GgaSolver, ZeroDemandGivesStaticHead) {
  const Network net = single_pipe(0.0);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  EXPECT_NEAR(state.head[net.node_id("A")], 50.0, 1e-6);
  EXPECT_NEAR(state.flow[0], 0.0, 1e-6);
}

TEST(GgaSolver, MassBalanceAtEveryJunction) {
  // Looped network: R -> A -> B, R -> B, plus demands.
  Network net("looped");
  const NodeId r = net.add_reservoir("R", 60.0);
  const NodeId a = net.add_junction("A", 10.0, 8.0);
  const NodeId b = net.add_junction("B", 12.0, 12.0);
  net.add_pipe("P1", r, a, 300.0, 0.3, 120.0);
  net.add_pipe("P2", a, b, 200.0, 0.25, 110.0);
  net.add_pipe("P3", r, b, 400.0, 0.3, 125.0);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  // Node A: inflow P1 - outflow P2 = demand.
  EXPECT_NEAR(state.flow[0] - state.flow[1], 0.008, 1e-5);
  // Node B: inflow P2 + P3 = demand.
  EXPECT_NEAR(state.flow[1] + state.flow[2], 0.012, 1e-5);
}

TEST(GgaSolver, EmitterSatisfiesEquationOne) {
  Network net = single_pipe(5.0);
  net.set_emitter(net.node_id("A"), 0.004, 0.5);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  const double p = state.pressure[net.node_id("A")];
  ASSERT_GT(p, 1.0);  // above the smoothing region
  EXPECT_NEAR(state.emitter_outflow[net.node_id("A")], 0.004 * std::sqrt(p), 1e-8);
  // Pipe must carry demand + leak.
  EXPECT_NEAR(state.flow[0], 0.005 + state.emitter_outflow[net.node_id("A")], 1e-6);
}

TEST(GgaSolver, LeakLowersPressure) {
  Network healthy = single_pipe(10.0);
  GgaSolver hs(healthy);
  const double p_healthy = hs.solve_snapshot().pressure[healthy.node_id("A")];
  Network leaky = single_pipe(10.0);
  leaky.set_emitter(leaky.node_id("A"), 0.005, 0.5);
  GgaSolver ls(leaky);
  const double p_leaky = ls.solve_snapshot().pressure[leaky.node_id("A")];
  EXPECT_LT(p_leaky, p_healthy);
}

TEST(GgaSolver, ClosedPipeBlocksFlow) {
  Network net("closed");
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 10.0, 5.0);
  net.add_pipe("P1", r, a, 300.0, 0.3, 120.0);
  const LinkId closed = net.add_pipe("P2", r, a, 300.0, 0.3, 120.0, LinkStatus::kClosed);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  EXPECT_NEAR(state.flow[closed], 0.0, 1e-6);
  EXPECT_NEAR(state.flow[0], 0.005, 1e-5);
}

TEST(GgaSolver, PumpLiftsHeadAboveSource) {
  Network net("pumped");
  const NodeId r = net.add_reservoir("R", 5.0);
  const NodeId a = net.add_junction("A", 2.0, 10.0);
  net.add_pump("PU", r, a, PumpCurve{40.0, 500.0, 2.0});
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  const double q = state.flow[0];
  EXPECT_NEAR(q, 0.010, 1e-5);
  EXPECT_NEAR(state.head[a], 5.0 + 40.0 - 500.0 * q * q, 1e-4);
  EXPECT_GT(state.head[a], 5.0);
}

TEST(GgaSolver, TankActsAsFixedHeadWithinSolve) {
  Network net("tanked");
  const NodeId t = net.add_tank("T", 30.0, 4.0, 1.0, 8.0, 10.0);
  const NodeId a = net.add_junction("A", 5.0, 3.0);
  net.add_pipe("P", t, a, 100.0, 0.3, 120.0);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  EXPECT_DOUBLE_EQ(state.head[t], 34.0);
  EXPECT_LT(state.head[a], 34.0);
}

TEST(GgaSolver, WarmStartConvergesFaster) {
  const Network net = single_pipe(15.0);
  GgaSolver solver(net);
  const auto cold = solver.solve_snapshot();
  std::vector<double> demands(net.num_nodes(), 0.0), fixed(net.num_nodes(), 0.0);
  demands[net.node_id("A")] = 0.0151;  // small perturbation
  fixed[net.node_id("R")] = 50.0;
  const auto warm = solver.solve(demands, fixed, &cold);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(GgaSolver, RequiresPerNodeVectors) {
  const Network net = single_pipe();
  GgaSolver solver(net);
  EXPECT_THROW(solver.solve({0.0}, {0.0, 0.0}), InvalidArgument);
}

TEST(GgaSolver, InvalidNetworkRejectedAtConstruction) {
  Network net("nosource");
  const NodeId a = net.add_junction("A", 0.0);
  const NodeId b = net.add_junction("B", 0.0);
  net.add_pipe("P", a, b, 10.0, 0.1, 100.0);
  EXPECT_THROW(GgaSolver{net}, InvalidArgument);
}

TEST(GgaSolver, BuiltinNetworksSatisfyNetworkEquations) {
  oracle::expect_satisfies_network_equations(networks::make_epa_net());
  oracle::expect_satisfies_network_equations(networks::make_wssc_subnet());
}

TEST(GgaSolver, BuiltinNetworksWithLeaksSatisfyNetworkEquations) {
  auto epa = networks::make_epa_net();
  auto epa_junctions = epa.junction_ids();
  epa.set_emitter(epa_junctions[7], 0.003);
  epa.set_emitter(epa_junctions[31], 0.005);
  const auto epa_state = oracle::expect_satisfies_network_equations(epa);
  EXPECT_GT(epa_state.total_emitter_outflow(), 0.0);

  auto wssc = networks::make_wssc_subnet();
  auto wssc_junctions = wssc.junction_ids();
  wssc.set_emitter(wssc_junctions[40], 0.004);
  wssc.set_emitter(wssc_junctions[200], 0.006);
  const auto wssc_state = oracle::expect_satisfies_network_equations(wssc);
  EXPECT_GT(wssc_state.total_emitter_outflow(), 0.0);
}

TEST(GgaSolver, NonFiniteConsultedInputsAreRejected) {
  const auto net = networks::make_epa_net();
  const std::size_t n = net.num_nodes();
  std::vector<double> demands(n, 0.0), fixed(n, 0.0);
  NodeId reservoir = n;
  for (NodeId v = 0; v < n; ++v) {
    const Node& node = net.node(v);
    demands[v] = net.demand_at(v, 0);
    if (node.type == NodeType::kReservoir) {
      fixed[v] = node.elevation;
      reservoir = v;
    }
    if (node.type == NodeType::kTank) fixed[v] = node.elevation + node.init_level;
  }
  ASSERT_LT(reservoir, n);
  const NodeId junction = net.junction_ids()[5];

  for (const bool throw_on_divergence : {true, false}) {
    SolverOptions options;
    options.throw_on_divergence = throw_on_divergence;
    const GgaSolver solver(net, options);
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      auto bad_demands = demands;
      bad_demands[junction] = bad;
      EXPECT_THROW(solver.solve(bad_demands, fixed), InvalidArgument) << bad;
    }
    auto bad_fixed = fixed;
    bad_fixed[reservoir] = HUGE_VAL;
    EXPECT_THROW(solver.solve(demands, bad_fixed), InvalidArgument);

    // Entries the solve never reads stay free: a junction's fixed head.
    const auto reference = solver.solve(demands, fixed);
    auto unread = fixed;
    unread[junction] = std::nan("");
    const auto state = solver.solve(demands, unread);
    ASSERT_TRUE(state.converged);
    EXPECT_EQ(state.head, reference.head);
    EXPECT_EQ(state.flow, reference.flow);
  }
}

TEST(GgaSolver, InnerSolveFailureReturnsFullSizedBestEffortState) {
  // A finite but overflowing demand drives the heads to -inf, and the next
  // factorization meets a NaN pivot.
  const Network net = single_pipe();
  const std::vector<double> demands = {0.0, 1e300};
  const std::vector<double> fixed = {50.0, 0.0};

  SolverOptions options;
  EXPECT_THROW(GgaSolver(net, options).solve(demands, fixed), SolverError);

  options.throw_on_divergence = false;
  const auto state = GgaSolver(net, options).solve(demands, fixed);
  EXPECT_FALSE(state.converged);
  EXPECT_EQ(state.head.size(), net.num_nodes());
  EXPECT_EQ(state.pressure.size(), net.num_nodes());
  EXPECT_EQ(state.emitter_outflow.size(), net.num_nodes());
  EXPECT_EQ(state.flow.size(), net.num_links());
}

TEST(GgaSolver, WorkspaceReuseAcrossTimestepsIsBitIdentical) {
  // An EPS-style sequence through one reused solver (workspace + symbolic
  // factorization reused across every timestep) must be bit-identical to
  // running each timestep on a freshly constructed solver.
  const auto net = networks::make_epa_net();
  const std::size_t n = net.num_nodes();
  std::vector<double> fixed(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const Node& node = net.node(v);
    if (node.type == NodeType::kReservoir) fixed[v] = node.elevation;
    if (node.type == NodeType::kTank) fixed[v] = node.elevation + node.init_level;
  }

  GgaSolver reused(net);
  HydraulicState previous;
  bool have_previous = false;
  for (std::size_t period = 0; period < 6; ++period) {
    std::vector<double> demands(n, 0.0);
    for (NodeId v = 0; v < n; ++v) demands[v] = net.demand_at(v, period);
    const auto warm = have_previous ? &previous : nullptr;
    const auto from_reused = reused.solve(demands, fixed, warm);

    GgaSolver fresh(net);
    const auto from_fresh = fresh.solve(demands, fixed, warm);

    ASSERT_EQ(from_reused.iterations, from_fresh.iterations);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(from_reused.head[v], from_fresh.head[v]) << "period " << period;
    }
    for (LinkId l = 0; l < net.num_links(); ++l) {
      EXPECT_EQ(from_reused.flow[l], from_fresh.flow[l]) << "period " << period;
    }
    previous = from_reused;
    have_previous = true;
  }
}

TEST(GgaSolver, ProbeOutflowResponseMatchesFiniteDifference) {
  // The linearized probe (one factorization, blocked RHS) must agree with
  // the finite-difference response of the full nonlinear solver to a small
  // extra outflow at each probe node, to first order.
  const auto net = networks::make_epa_net();
  SolverOptions options;
  options.accuracy = 1e-10;
  options.max_iterations = 2000;
  GgaSolver solver(net, options);
  const auto base = solver.solve_snapshot();
  ASSERT_TRUE(base.converged);

  const auto junctions = net.junction_ids();
  const std::vector<NodeId> probes = {junctions[3], junctions[17], junctions[44]};
  std::vector<double> head_response, flow_response;
  solver.probe_outflow_response(base, probes, head_response, &flow_response);
  ASSERT_EQ(head_response.size(), probes.size() * net.num_nodes());
  ASSERT_EQ(flow_response.size(), probes.size() * net.num_links());

  const std::size_t n = net.num_nodes();
  std::vector<double> demands(n, 0.0), fixed(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& node = net.node(v);
    demands[v] = net.demand_at(v, 0);
    if (node.type == NodeType::kReservoir) fixed[v] = node.elevation;
    if (node.type == NodeType::kTank) fixed[v] = node.elevation + node.init_level;
  }
  const double eps = 2e-5;  // 0.02 l/s perturbation
  for (std::size_t k = 0; k < probes.size(); ++k) {
    auto perturbed = demands;
    perturbed[probes[k]] += eps;
    const auto bumped = solver.solve(perturbed, fixed, &base);
    ASSERT_TRUE(bumped.converged);
    // Mixed tolerance: the finite difference itself carries O(eps)
    // truncation error proportional to the response magnitude.
    for (NodeId v = 0; v < n; ++v) {
      const double fd = (bumped.head[v] - base.head[v]) / eps;
      EXPECT_NEAR(head_response[k * n + v], fd, 2e-3 * std::max(1.0, std::abs(fd)))
          << "probe " << k << " head response at node " << v;
    }
    for (LinkId l = 0; l < net.num_links(); ++l) {
      const double fd = (bumped.flow[l] - base.flow[l]) / eps;
      EXPECT_NEAR(flow_response[k * net.num_links() + l], fd, 2e-3 * std::max(1.0, std::abs(fd)))
          << "probe " << k << " flow response on link " << l;
    }
  }
}

TEST(GgaSolver, TotalEmitterOutflowSums) {
  Network net("multi-leak");
  const NodeId r = net.add_reservoir("R", 60.0);
  const NodeId a = net.add_junction("A", 10.0, 2.0);
  const NodeId b = net.add_junction("B", 10.0, 2.0);
  net.add_pipe("P1", r, a, 200.0, 0.3, 120.0);
  net.add_pipe("P2", a, b, 200.0, 0.3, 120.0);
  net.set_emitter(a, 0.002);
  net.set_emitter(b, 0.003);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  EXPECT_NEAR(state.total_emitter_outflow(),
              state.emitter_outflow[a] + state.emitter_outflow[b], 1e-12);
  EXPECT_GT(state.emitter_outflow[b], 0.0);
}

}  // namespace
}  // namespace aqua::hydraulics
