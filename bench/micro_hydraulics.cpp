// Microbenchmarks (google-benchmark) for the computational substrates:
// GGA steady solves, extended-period steps, leak-scenario simulation,
// k-medoids placement, tree/forest training and profile inference. These
// are the costs that determine how far the evaluation scales. After the
// google-benchmark suite, main() runs a GGA node-count sweep from the
// paper networks up to 50k-node generated cities and writes
// BENCH_micro_hydraulics.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
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

void solve_bench(benchmark::State& state, const hydraulics::Network& net) {
  const hydraulics::GgaSolver solver(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_snapshot());
  }
}

void BM_GgaSolveEpaNet(benchmark::State& state) { solve_bench(state, networks::make_epa_net()); }
BENCHMARK(BM_GgaSolveEpaNet);

void BM_GgaSolveWssc(benchmark::State& state) { solve_bench(state, networks::make_wssc_subnet()); }
BENCHMARK(BM_GgaSolveWssc);

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

/// Seconds per GGA snapshot solve (mean over `reps` solves after warmup;
/// deterministic workload).
double seconds_per_solve(const hydraulics::GgaSolver& solver, std::size_t reps) {
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

/// One tier of the node-count sweep: the full GGA snapshot solve (Newton
/// loop + LDLT refactor/solve per iteration), as seconds per solve and GGA
/// iterations per second.
void sweep_network(const std::string& key, const hydraulics::Network& net, std::size_t reps,
                   aqua::bench::Metrics& metrics) {
  const hydraulics::GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  const double solve_s = seconds_per_solve(solver, reps);
  const double ips = solve_s > 0.0 ? static_cast<double>(state.iterations) / solve_s : 0.0;
  std::printf("%-17s %6zu nodes %6zu links: %.3e s/solve (%7.0f gga it/s)\n", key.c_str(),
              net.num_nodes(), net.num_links(), solve_s, ips);
  metrics.emplace_back(key + ".nodes", static_cast<double>(net.num_nodes()));
  metrics.emplace_back(key + ".links", static_cast<double>(net.num_links()));
  metrics.emplace_back(key + ".ldlt_solve_s", solve_s);
  metrics.emplace_back(key + ".ldlt_gga_iters_per_s", ips);
}

/// Node-count sweep from the paper-scale builtins up to 50k-node generated
/// cities: how the GGA's per-solve cost grows with network size.
void node_count_sweep(aqua::bench::Metrics& metrics) {
  std::printf("\nGGA node-count sweep (LDLT, full snapshot solve):\n");
  sweep_network("sweep.epa_net", networks::make_epa_net(), aqua::bench::scaled(64), metrics);
  sweep_network("sweep.wssc_subnet", networks::make_wssc_subnet(), aqua::bench::scaled(64),
                metrics);
  const std::size_t city_tiers[] = {1000, 3000, 10000, 20000, 50000};
  for (const std::size_t target : city_tiers) {
    hydraulics::Network net;
    networks::make_city(net, networks::city_spec_for_nodes(target));
    const std::size_t reps =
        std::max<std::size_t>(2, aqua::bench::scaled(64) / std::max<std::size_t>(1, target / 500));
    sweep_network("sweep.city_" + std::to_string(target), net, reps, metrics);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  aqua::bench::Metrics metrics;
  node_count_sweep(metrics);
  aqua::bench::json_report("micro_hydraulics", metrics);
  return 0;
}
