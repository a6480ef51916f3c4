// Robustness of the localization pipeline under the scenario-diversity
// engine (DESIGN.md §15): a profile trained on the paper's clean leak
// corpus is evaluated against test corpora where each variant family fires
// with probability 1 — pump outages, valve closures, ramping leaks, demand
// surges, tank drawdowns, and the four sensor-fault kinds. For every
// variant the bench (a) asserts the replay/full-run identity gate (replay-
// compatible scenarios must produce bit-identical snapshots on both paths;
// incompatible ones must be counted on the full-run side), then (b)
// reports Phase I (profile-only) and Phase II (fused) accuracy as the mean
// Hamming score plus the coarse detection hit-rate, per network. A failed
// identity gate makes the process exit nonzero, so scripts/run_benches.sh
// treats replay divergence as a hard failure, not a perf regression.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/inference_engine.hpp"
#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "ml/metrics.hpp"
#include "networks/builtin.hpp"

using namespace aqua;
using namespace aqua::core;

namespace {

bool snapshots_identical(const SnapshotBatch& a, const SnapshotBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots(i);
    const auto& sb = b.snapshots(i);
    if (sa.before_pressure != sb.before_pressure || sa.before_flow != sb.before_flow ||
        sa.after_pressure != sb.after_pressure || sa.after_flow != sb.after_flow ||
        sa.day_fraction != sb.day_fraction) {
      return false;
    }
  }
  return true;
}

struct VariantResult {
  std::string name;
  double hamming_phase1 = 0.0;
  double hamming_phase2 = 0.0;
  double hit_rate = 0.0;
  std::size_t replayed = 0;
  std::size_t full_run = 0;
  bool identical = false;
};

/// True when the network offers targets for this family at all (a spec
/// without targets never fires, so benching it would just repeat the
/// baseline row).
bool variant_applicable(const hydraulics::Network& net, FaultKind kind) {
  std::size_t pumps = 0, valves = 0, tanks = 0;
  for (hydraulics::LinkId l = 0; l < net.num_links(); ++l) {
    if (net.link(l).type == hydraulics::LinkType::kPump) ++pumps;
    if (net.link(l).type == hydraulics::LinkType::kValve) ++valves;
  }
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type == hydraulics::NodeType::kTank) ++tanks;
  }
  switch (kind) {
    case FaultKind::kPumpOutage:
      return pumps > 0;
    case FaultKind::kValveClosure:
      return valves > 0;
    case FaultKind::kTankDrawdown:
      return tanks > 0;
    default:
      return true;
  }
}

void run_network(const hydraulics::Network& net, std::size_t train_base, std::size_t test_base,
                 const std::string& key, bench::Metrics& metrics, bench::Gates& gates) {
  ScenarioConfig clean;
  clean.max_events = 2;
  clean.seed = 7777;

  // Phase I: one profile on the clean corpus; every variant row reuses it,
  // so accuracy deltas isolate the corpus shift, not retraining noise.
  ScenarioGenerator train_generator(net, clean);
  const auto train_scenarios = train_generator.generate(bench::scaled(train_base));
  const std::vector<std::size_t> elapsed = {1};
  const SnapshotBatch train_batch(net, train_scenarios, elapsed, {});

  const auto sensors = sensing::full_observation(net);
  ProfileTrainingConfig training;
  training.kind = ModelKind::kHybridRsl;
  training.noise_seed = clean.seed ^ 0x1111ULL;
  const ProfileModel profile =
      train_profile(train_batch, train_scenarios, sensors, 0, training);
  const InferenceEngine engine(profile);

  std::vector<std::pair<std::string, std::vector<FaultSpec>>> rows;
  rows.emplace_back("baseline", std::vector<FaultSpec>{});
  for (FaultKind kind :
       {FaultKind::kPumpOutage, FaultKind::kValveClosure, FaultKind::kLeakRamp,
        FaultKind::kDemandSurge, FaultKind::kTankDrawdown, FaultKind::kSensorDropout,
        FaultKind::kSensorStuckAt, FaultKind::kSensorDrift, FaultKind::kSensorBias}) {
    if (!variant_applicable(net, kind)) continue;
    rows.emplace_back(fault_kind_name(kind), std::vector<FaultSpec>{make_fault_spec(kind)});
  }

  std::printf("\n%s (%zu nodes, %zu links): %zu train scenarios, %zu test per variant\n",
              net.name().c_str(), net.num_nodes(), net.num_links(), train_scenarios.size(),
              bench::scaled(test_base));
  Table table({"variant", "hamming P1", "hamming P2", "hit rate", "replayed", "full run",
               "identical"});

  for (const auto& [name, faults] : rows) {
    ScenarioConfig variant = clean;
    variant.seed = 24601;  // same test stream per row; only the fault layer differs
    variant.faults = faults;
    ScenarioGenerator generator(net, variant);
    const auto scenarios = generator.generate(bench::scaled(test_base));

    const SnapshotBatch batch(net, scenarios, elapsed, {});
    const SnapshotBatch full(net, scenarios, elapsed, {}, true, false);
    VariantResult row;
    row.name = name;
    row.identical = gates.check(snapshots_identical(batch, full),
                                key + "." + name + ": replay snapshots diverge from full runs");
    row.replayed = batch.stats().replayed;
    row.full_run = batch.stats().full_run;

    std::vector<InferenceInputs> inputs(scenarios.size());
    Rng root(variant.seed ^ 0x9999ULL);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      Rng rng = root.split();
      const auto resolved =
          sensing::resolve_sensor_faults(scenarios[i].sensor_faults, sensors.size());
      inputs[i].features.resize(sensors.size() + 1);
      batch.features_into(i, sensors, 0, profile.noise, rng, true, resolved,
                          inputs[i].features);
    }
    const auto results = engine.infer_batch(inputs);

    std::vector<ml::Labels> fused, iot_only, truth;
    for (std::size_t i = 0; i < results.size(); ++i) {
      fused.push_back(results[i].predicted);
      iot_only.push_back(results[i].predicted_iot_only);
      truth.push_back(scenarios[i].truth);
    }
    row.hamming_phase1 = ml::mean_hamming_score(iot_only, truth);
    row.hamming_phase2 = ml::mean_hamming_score(fused, truth);
    row.hit_rate = ml::detection_hit_rate(fused, truth);

    table.add_row({row.name, Table::num(row.hamming_phase1, 4),
                   Table::num(row.hamming_phase2, 4), Table::num(row.hit_rate, 4),
                   Table::num(static_cast<double>(row.replayed), 0),
                   Table::num(static_cast<double>(row.full_run), 0),
                   row.identical ? "yes" : "NO"});

    const std::string prefix = key + "." + row.name;
    metrics.emplace_back(prefix + ".hamming_phase1", row.hamming_phase1);
    metrics.emplace_back(prefix + ".hamming_phase2", row.hamming_phase2);
    metrics.emplace_back(prefix + ".hit_rate", row.hit_rate);
    metrics.emplace_back(prefix + ".replayed", static_cast<double>(row.replayed));
    metrics.emplace_back(prefix + ".full_run", static_cast<double>(row.full_run));
    metrics.emplace_back(prefix + ".snapshots_identical", row.identical ? 1.0 : 0.0);
  }
  table.print();
}

}  // namespace

int main() {
  bench::banner("Robustness under scenario variants",
                "per-variant Phase I/II accuracy with the replay identity gate");
  bench::Metrics metrics;
  bench::Gates gates;
  run_network(networks::make_epa_net(), 96, 32, "epa_net", metrics, gates);
  run_network(networks::make_wssc_subnet(), 64, 24, "wssc_subnet", metrics, gates);
  metrics.emplace_back("identity_gate_failures", static_cast<double>(gates.failures()));
  gates.check(bench::json_report("robustness", metrics),
              "write BENCH_robustness.json");
  return gates.exit_status();
}
