// Microbenchmarks (google-benchmark) for the computational substrates:
// GGA steady solves (per inner linear solver), extended-period steps,
// leak-scenario simulation, k-medoids placement, tree/forest training and
// profile inference. These are the costs that determine how far the
// evaluation scales. After the google-benchmark suite, main() runs a
// dedicated inner-solver latency comparison and writes
// BENCH_micro_hydraulics.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/aquascale.hpp"
#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"

using namespace aqua;

namespace {

void solve_bench(benchmark::State& state, const hydraulics::Network& net,
                 hydraulics::LinearSolver linear_solver) {
  hydraulics::SolverOptions options;
  options.linear_solver = linear_solver;
  const hydraulics::GgaSolver solver(net, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_snapshot());
  }
}

void BM_GgaSolveEpaNet(benchmark::State& state) {
  solve_bench(state, networks::make_epa_net(), hydraulics::LinearSolver::kCholesky);
}
BENCHMARK(BM_GgaSolveEpaNet);

void BM_GgaSolveEpaNetCg(benchmark::State& state) {
  solve_bench(state, networks::make_epa_net(), hydraulics::LinearSolver::kConjugateGradient);
}
BENCHMARK(BM_GgaSolveEpaNetCg);

void BM_GgaSolveWssc(benchmark::State& state) {
  solve_bench(state, networks::make_wssc_subnet(), hydraulics::LinearSolver::kCholesky);
}
BENCHMARK(BM_GgaSolveWssc);

void BM_GgaSolveWsscCg(benchmark::State& state) {
  solve_bench(state, networks::make_wssc_subnet(), hydraulics::LinearSolver::kConjugateGradient);
}
BENCHMARK(BM_GgaSolveWsscCg);

void BM_GgaSolveWithLeaks(benchmark::State& state) {
  auto net = networks::make_wssc_subnet();
  const auto junctions = net.junction_ids();
  net.set_emitter(junctions[40], 0.004);
  net.set_emitter(junctions[200], 0.006);
  const hydraulics::GgaSolver solver(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_snapshot());
  }
}
BENCHMARK(BM_GgaSolveWithLeaks);

void BM_Eps24hEpaNet(benchmark::State& state) {
  const auto net = networks::make_epa_net();
  for (auto _ : state) {
    hydraulics::SimulationOptions options;
    options.duration_s = 24.0 * 3600.0;
    hydraulics::Simulation sim(net, options);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_Eps24hEpaNet);

void BM_ScenarioSimulation(benchmark::State& state) {
  const auto net = networks::make_wssc_subnet();
  core::ScenarioConfig config;
  config.max_events = 5;
  core::ScenarioGenerator generator(net, config);
  const auto scenario = generator.next();
  for (auto _ : state) {
    hydraulics::SimulationOptions options;
    options.duration_s = static_cast<double>(scenario.leak_slot + 2) * 900.0;
    hydraulics::Simulation sim(net, options);
    sim.schedule_leaks(scenario.events);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_ScenarioSimulation);

void BM_KMedoidsPlacement(benchmark::State& state) {
  const auto net = networks::make_epa_net();
  hydraulics::Simulation baseline(net, {});
  const auto results = baseline.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sensing::place_sensors_kmedoids(net, results, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_KMedoidsPlacement)->Arg(10)->Arg(50);

void BM_BinnedTreeFit(benchmark::State& state) {
  const std::size_t n = 2000, d = 100;
  Rng rng(1);
  ml::Matrix x(n, d);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 3) > 0.5 ? 1.0 : 0.0;
  }
  ml::BinnedDataset store;
  store.fit(x);
  for (auto _ : state) {
    ml::RegressionTree tree;
    tree.fit_binned(store, y);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BinnedTreeFit);

void BM_RandomForestFit(benchmark::State& state) {
  const std::size_t n = 1000, d = 60;
  Rng rng(2);
  ml::Matrix x(n, d);
  ml::Labels y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 1) > 1.5 ? 1 : 0;
  }
  for (auto _ : state) {
    ml::RandomForestClassifier forest;
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_RandomForestFit);

void BM_BayesAggregation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::bayes_aggregate({0.4, 0.6, 0.7}));
  }
}
BENCHMARK(BM_BayesAggregation);

/// Seconds per GGA snapshot solve with the given solver options (median-free
/// mean over `reps` solves after warmup; deterministic workload).
double seconds_per_solve(const hydraulics::Network& net, const hydraulics::SolverOptions& options,
                         std::size_t reps) {
  const hydraulics::GgaSolver solver(net, options);
  const std::size_t warmup = reps >= 8 ? 3 : 1;
  for (std::size_t i = 0; i < warmup; ++i) solver.solve_snapshot();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    const auto state = solver.solve_snapshot();
    benchmark::DoNotOptimize(state.head.data());
  }
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return total / static_cast<double>(reps);
}

/// Per-solve latency of both inner solvers on one builtin network; appends
/// metrics under `<key>.` and prints the speedup.
void compare_inner_solvers(const std::string& key, const hydraulics::Network& net,
                           aqua::bench::Metrics& metrics) {
  const std::size_t reps = aqua::bench::scaled(64);
  hydraulics::SolverOptions chol_options;
  chol_options.linear_solver = hydraulics::LinearSolver::kCholesky;
  hydraulics::SolverOptions cg_options;
  cg_options.linear_solver = hydraulics::LinearSolver::kConjugateGradient;
  const double chol = seconds_per_solve(net, chol_options, reps);
  const double cg = seconds_per_solve(net, cg_options, reps);
  const double speedup = chol > 0.0 ? cg / chol : 0.0;
  std::printf("%-12s (%3zu nodes, %3zu links): cholesky %.3e s/solve, cg %.3e s/solve, %.2fx\n",
              key.c_str(), net.num_nodes(), net.num_links(), chol, cg, speedup);
  metrics.emplace_back(key + ".cholesky_solve_s", chol);
  metrics.emplace_back(key + ".cholesky_solves_per_s", chol > 0.0 ? 1.0 / chol : 0.0);
  metrics.emplace_back(key + ".cg_solve_s", cg);
  metrics.emplace_back(key + ".cg_solves_per_s", cg > 0.0 ? 1.0 / cg : 0.0);
  metrics.emplace_back(key + ".cholesky_speedup_over_cg", speedup);
}

/// One tier of the node-count sweep: per-backend GGA solve latency plus the
/// head/flow agreement between the two backends on the same network.
struct SweepPoint {
  std::size_t nodes = 0;
  double ldlt_s = 0.0;
  double ic0cg_s = 0.0;
};

/// Times a full GGA snapshot solve (Newton loop + inner solves) per
/// backend, reporting GGA iterations per second and the cross-backend
/// head/flow agreement — the acceptance signal that the iterative backend
/// is solving the same physics, not a looser problem.
SweepPoint sweep_network(const std::string& key, const hydraulics::Network& net,
                         std::size_t reps, aqua::bench::Metrics& metrics) {
  SweepPoint point;
  point.nodes = net.num_nodes();

  hydraulics::SolverOptions direct_options;
  direct_options.linear_solver = hydraulics::LinearSolver::kCholesky;
  const hydraulics::GgaSolver direct(net, direct_options);
  const auto direct_state = direct.solve_snapshot();

  // The iterative backend needs a much larger inner budget on the big city
  // tiers: the converged Jacobian's conductance spread (~1e5) pushes IC(0)-CG
  // past 2k iterations per Newton step at 50k nodes. Report non-convergence
  // instead of aborting the sweep.
  hydraulics::SolverOptions iter_options;
  iter_options.linear_solver = hydraulics::LinearSolver::kIc0Cg;
  iter_options.cg.max_iterations = 30000;
  iter_options.throw_on_divergence = false;
  const hydraulics::GgaSolver iterative(net, iter_options);
  const auto iter_state = iterative.solve_snapshot();

  double max_head_diff = 0.0;
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    max_head_diff = std::max(max_head_diff, std::abs(direct_state.head[v] - iter_state.head[v]));
  }
  double max_flow_diff = 0.0;
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    max_flow_diff = std::max(max_flow_diff, std::abs(direct_state.flow[l] - iter_state.flow[l]));
  }

  point.ldlt_s = seconds_per_solve(net, direct_options, reps);
  point.ic0cg_s = seconds_per_solve(net, iter_options, reps);
  const double gga_iters = static_cast<double>(direct_state.iterations);
  const double ldlt_ips = point.ldlt_s > 0.0 ? gga_iters / point.ldlt_s : 0.0;
  const double ic0_ips = point.ic0cg_s > 0.0
                             ? static_cast<double>(iter_state.iterations) / point.ic0cg_s
                             : 0.0;

  std::printf(
      "%-12s %6zu nodes: ldlt %.3e s/solve (%7.0f gga it/s), ic0-cg %.3e s/solve "
      "(%7.0f gga it/s), dh_max %.2e, dq_max %.2e\n",
      key.c_str(), net.num_nodes(), point.ldlt_s, ldlt_ips, point.ic0cg_s, ic0_ips, max_head_diff,
      max_flow_diff);
  metrics.emplace_back(key + ".nodes", static_cast<double>(net.num_nodes()));
  metrics.emplace_back(key + ".links", static_cast<double>(net.num_links()));
  metrics.emplace_back(key + ".ldlt_solve_s", point.ldlt_s);
  metrics.emplace_back(key + ".ldlt_gga_iters_per_s", ldlt_ips);
  metrics.emplace_back(key + ".ic0cg_solve_s", point.ic0cg_s);
  metrics.emplace_back(key + ".ic0cg_gga_iters_per_s", ic0_ips);
  metrics.emplace_back(key + ".ic0cg_speedup_over_ldlt",
                       point.ic0cg_s > 0.0 ? point.ldlt_s / point.ic0cg_s : 0.0);
  metrics.emplace_back(key + ".max_head_diff_m", max_head_diff);
  metrics.emplace_back(key + ".max_flow_diff_m3s", max_flow_diff);
  metrics.emplace_back(key + ".both_converged",
                       direct_state.converged && iter_state.converged ? 1.0 : 0.0);
  return point;
}

/// Node-count sweep from the paper-scale builtins up to 50k-node generated
/// cities: measures whether/where IC(0)-CG overtakes LDLT and reports the
/// empirical crossover (first tier where the iterative backend wins; 0 when
/// the direct backend wins everywhere, which is what this hardware measures
/// — min-degree fill stays ~1.3x on the planar city grids).
void backend_crossover_sweep(aqua::bench::Metrics& metrics) {
  std::printf("\nbackend node-count sweep (LDLT vs IC(0)-CG, full GGA snapshot):\n");
  std::vector<SweepPoint> points;
  points.push_back(
      sweep_network("sweep.epa_net", networks::make_epa_net(), aqua::bench::scaled(64), metrics));
  points.push_back(sweep_network("sweep.wssc_subnet", networks::make_wssc_subnet(),
                                 aqua::bench::scaled(64), metrics));
  const std::size_t city_tiers[] = {1000, 3000, 10000, 20000, 50000};
  for (const std::size_t target : city_tiers) {
    hydraulics::Network net;
    networks::make_city(net, networks::city_spec_for_nodes(target));
    const std::size_t reps =
        std::max<std::size_t>(2, aqua::bench::scaled(64) / std::max<std::size_t>(1, target / 500));
    points.push_back(sweep_network("sweep.city_" + std::to_string(target), net, reps, metrics));
  }

  // Empirical crossover: smallest tier where IC(0)-CG beats LDLT (0 when
  // it never does). This is the measurement behind
  // SolverOptions::auto_crossover_nodes.
  double crossover = 0.0;
  for (const auto& point : points) {
    if (point.ic0cg_s < point.ldlt_s) {
      crossover = static_cast<double>(point.nodes);
      break;
    }
  }
  std::printf("measured crossover: %s\n",
              crossover > 0.0 ? (std::to_string(static_cast<std::size_t>(crossover)) + " nodes")
                                    .c_str()
                              : "none (LDLT wins at every tier)");
  metrics.emplace_back("sweep.crossover_nodes", crossover);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\ninner linear solver comparison (per GGA snapshot solve):\n");
  aqua::bench::Metrics metrics;
  compare_inner_solvers("epa_net", networks::make_epa_net(), metrics);
  compare_inner_solvers("wssc_subnet", networks::make_wssc_subnet(), metrics);
  backend_crossover_sweep(metrics);
  aqua::bench::json_report("micro_hydraulics", metrics);
  return 0;
}
