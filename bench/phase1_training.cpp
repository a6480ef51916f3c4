// Phase I scenario throughput: the paper trains the profile model on
// thousands of simulated leak scenarios (Sec. IV-A), and simulation count
// is the binding cost of the whole method family. This bench compares the
// full-run path (`use_replay = false`: every scenario simulated from t = 0
// on the batch's engines) against the checkpointed replay path (shared no-leak baseline + per-scenario resume
// at the leak slot) on both builtin networks, verifying the two produce
// bit-identical snapshots before timing anything. A divergence fails the
// bench's gate and makes it exit nonzero.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "networks/builtin.hpp"

using namespace aqua;
using namespace aqua::core;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool snapshots_identical(const SnapshotBatch& a, const SnapshotBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots(i);
    const auto& sb = b.snapshots(i);
    if (sa.before_pressure != sb.before_pressure || sa.before_flow != sb.before_flow ||
        sa.after_pressure != sb.after_pressure || sa.after_flow != sb.after_flow ||
        sa.day_fraction != sb.day_fraction || sa.leak_slot != sb.leak_slot) {
      return false;
    }
  }
  return true;
}

void run_network(const hydraulics::Network& net, std::size_t base_count, const std::string& key,
                 bench::Metrics& metrics, bench::Gates& gates) {
  ScenarioConfig config;
  config.max_events = 3;
  config.seed = 4242;
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(bench::scaled(base_count));
  const std::vector<std::size_t> elapsed = {1};

  const auto t_full = std::chrono::steady_clock::now();
  const SnapshotBatch full(net, scenarios, elapsed, {}, true, false);
  const double full_s = seconds_since(t_full);

  const auto t_replay = std::chrono::steady_clock::now();
  const SnapshotBatch replay(net, scenarios, elapsed, {}, true, true);
  const double replay_s = seconds_since(t_replay);

  const bool identical = gates.check(snapshots_identical(full, replay),
                                     key + ": replay snapshots diverge from full runs");

  const double n = static_cast<double>(scenarios.size());
  const double full_rate = full_s > 0.0 ? n / full_s : 0.0;
  const double replay_rate = replay_s > 0.0 ? n / replay_s : 0.0;
  const double speedup = replay_s > 0.0 ? full_s / replay_s : 0.0;
  const auto full_solves = static_cast<double>(full.stats().total_linear_solves());
  const auto replay_solves = static_cast<double>(replay.stats().total_linear_solves());

  std::printf("\n%s (%zu nodes, %zu links), %zu scenarios, elapsed slots {1}:\n",
              net.name().c_str(), net.num_nodes(), net.num_links(), scenarios.size());
  Table table({"path", "wall [s]", "scenarios/s", "linear solves", "hydraulic steps"});
  table.add_row({"full run", Table::num(full_s, 3), Table::num(full_rate, 1),
                 Table::num(full_solves, 0),
                 Table::num(static_cast<double>(full.stats().total_steps()), 0)});
  table.add_row({"replay", Table::num(replay_s, 3), Table::num(replay_rate, 1),
                 Table::num(replay_solves, 0),
                 Table::num(static_cast<double>(replay.stats().total_steps()), 0)});
  table.print();
  std::printf("throughput speedup: %.1fx | solve reduction: %.1fx | snapshots identical: %s\n",
              speedup, replay_solves > 0.0 ? full_solves / replay_solves : 0.0,
              identical ? "yes" : "NO");

  metrics.emplace_back(key + ".scenarios", n);
  metrics.emplace_back(key + ".full_s", full_s);
  metrics.emplace_back(key + ".replay_s", replay_s);
  metrics.emplace_back(key + ".full_scenarios_per_s", full_rate);
  metrics.emplace_back(key + ".replay_scenarios_per_s", replay_rate);
  metrics.emplace_back(key + ".speedup", speedup);
  metrics.emplace_back(key + ".full_linear_solves", full_solves);
  metrics.emplace_back(key + ".replay_linear_solves", replay_solves);
  metrics.emplace_back(key + ".replay_baseline_steps",
                       static_cast<double>(replay.stats().baseline_steps));
  metrics.emplace_back(key + ".replay_engines_built",
                       static_cast<double>(replay.stats().engines_built));
  metrics.emplace_back(key + ".snapshots_identical", identical ? 1.0 : 0.0);
}

/// Variant-mixed corpus (scenario-diversity engine): hydraulic variants at
/// moderate rates plus tank drawdowns, so one batch both resumes scenarios
/// at their leak slot and runs the rest from step 0. The identity gate
/// still holds: both batches must agree snapshot for snapshot.
void run_variant_mix(const hydraulics::Network& net, std::size_t base_count,
                     const std::string& key, bench::Metrics& metrics, bench::Gates& gates) {
  ScenarioConfig config;
  config.max_events = 3;
  config.seed = 4242;
  config.faults = {
      make_fault_spec(FaultKind::kPumpOutage, 0.25),
      make_fault_spec(FaultKind::kValveClosure, 0.25),
      make_fault_spec(FaultKind::kLeakRamp, 0.25),
      make_fault_spec(FaultKind::kDemandSurge, 0.25),
      make_fault_spec(FaultKind::kTankDrawdown, 0.15),
  };
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(bench::scaled(base_count));
  const std::vector<std::size_t> elapsed = {1};

  const auto t_full = std::chrono::steady_clock::now();
  const SnapshotBatch full(net, scenarios, elapsed, {}, true, false);
  const double full_s = seconds_since(t_full);

  const auto t_mixed = std::chrono::steady_clock::now();
  const SnapshotBatch mixed(net, scenarios, elapsed, {}, true, true);
  const double mixed_s = seconds_since(t_mixed);

  const bool identical = gates.check(snapshots_identical(full, mixed),
                                     key + ": variant-mix replay snapshots diverge from full runs");

  const double speedup = mixed_s > 0.0 ? full_s / mixed_s : 0.0;
  std::printf(
      "\n%s variant mix, %zu scenarios: %zu replayed + %zu full-run fallback | "
      "full %.3fs vs mixed %.3fs (%.1fx) | snapshots identical: %s\n",
      net.name().c_str(), scenarios.size(), mixed.stats().replayed, mixed.stats().full_run,
      full_s, mixed_s, speedup, identical ? "yes" : "NO");

  metrics.emplace_back(key + ".variant_mix.scenarios", static_cast<double>(scenarios.size()));
  metrics.emplace_back(key + ".variant_mix.replayed",
                       static_cast<double>(mixed.stats().replayed));
  metrics.emplace_back(key + ".variant_mix.full_run",
                       static_cast<double>(mixed.stats().full_run));
  metrics.emplace_back(key + ".variant_mix.full_s", full_s);
  metrics.emplace_back(key + ".variant_mix.mixed_s", mixed_s);
  metrics.emplace_back(key + ".variant_mix.speedup", speedup);
  metrics.emplace_back(key + ".variant_mix.snapshots_identical", identical ? 1.0 : 0.0);
}

}  // namespace

int main() {
  bench::banner("Phase I training throughput",
                "full-run vs checkpointed-replay scenario snapshot batches");
  bench::Metrics metrics;
  bench::Gates gates;
  run_network(networks::make_epa_net(), 512, "epa_net", metrics, gates);
  run_network(networks::make_wssc_subnet(), 128, "wssc_subnet", metrics, gates);
  run_variant_mix(networks::make_epa_net(), 256, "epa_net", metrics, gates);
  run_variant_mix(networks::make_wssc_subnet(), 96, "wssc_subnet", metrics, gates);
  gates.check(bench::json_report("phase1_training", metrics),
              "write BENCH_phase1_training.json");
  return gates.exit_status();
}
