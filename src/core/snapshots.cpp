#include "core/snapshots.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hydraulics/replay.hpp"

namespace aqua::core {
namespace {

/// Extracts the before/after snapshot rows of one scenario. `before` and
/// `after_results` may come from different runs (shared baseline + replay)
/// or the same full run; indices are relative to each results object.
void extract_snapshots(const hydraulics::SimulationResults& before_results,
                       std::size_t before_index,
                       const hydraulics::SimulationResults& after_results,
                       const LeakScenario& scenario,
                       const std::vector<std::size_t>& elapsed_slots, double hydraulic_step_s,
                       ScenarioSnapshots& snap) {
  const std::size_t nodes = before_results.num_nodes();
  const std::size_t links = before_results.num_links();
  snap.before_pressure.resize(nodes);
  snap.before_flow.resize(links);
  for (std::size_t v = 0; v < nodes; ++v) {
    snap.before_pressure[v] = before_results.pressure(before_index, v);
  }
  for (std::size_t l = 0; l < links; ++l) snap.before_flow[l] = before_results.flow(before_index, l);

  const double seconds_per_day = 24.0 * 3600.0;
  snap.day_fraction =
      std::fmod(static_cast<double>(scenario.leak_slot) * hydraulic_step_s, seconds_per_day) /
      seconds_per_day;
  snap.leak_slot = scenario.leak_slot;

  snap.after_pressure.resize(elapsed_slots.size());
  snap.after_flow.resize(elapsed_slots.size());
  for (std::size_t e = 0; e < elapsed_slots.size(); ++e) {
    const std::size_t step =
        scenario.leak_slot + elapsed_slots[e] - after_results.start_step();
    AQUA_REQUIRE(step < after_results.num_steps(), "internal: snapshot beyond simulation end");
    snap.after_pressure[e].resize(nodes);
    snap.after_flow[e].resize(links);
    for (std::size_t v = 0; v < nodes; ++v) {
      snap.after_pressure[e][v] = after_results.pressure(step, v);
    }
    for (std::size_t l = 0; l < links; ++l) snap.after_flow[e][l] = after_results.flow(step, l);
  }
}

}  // namespace

SnapshotBatch::SnapshotBatch(const hydraulics::Network& network,
                             std::span<const LeakScenario> scenarios,
                             std::vector<std::size_t> elapsed_slots,
                             hydraulics::SimulationOptions options, bool parallel,
                             bool use_replay)
    : network_(network), elapsed_slots_(std::move(elapsed_slots)) {
  AQUA_REQUIRE(!elapsed_slots_.empty(), "need at least one elapsed-slot value");
  AQUA_REQUIRE(std::is_sorted(elapsed_slots_.begin(), elapsed_slots_.end()),
               "elapsed slots must be ascending");

  snapshots_.resize(scenarios.size());
  stats_.scenarios = scenarios.size();
  for (const LeakScenario& scenario : scenarios) validate_scenario(scenario, options);

  // Partition: scenarios whose dynamics leave the no-leak baseline valid
  // up to their leak slot replay from its checkpoint; the rest (tank
  // drawdowns, pre-leak operational/demand windows) fall back to full
  // runs. `use_replay = false` forces everything onto the full path.
  std::vector<std::size_t> replayable, full;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (use_replay && scenarios[i].replay_compatible(options.hydraulic_step_s)) {
      replayable.push_back(i);
    } else {
      full.push_back(i);
    }
  }
  stats_.replayed = replayable.size();
  stats_.full_run = full.size();

  if (!replayable.empty()) build_replay(scenarios, replayable, options, parallel);
  if (!full.empty()) build_full(scenarios, full, options, parallel);
}

void SnapshotBatch::validate_scenario(const LeakScenario& scenario,
                                      const hydraulics::SimulationOptions& options) const {
  AQUA_REQUIRE(scenario.leak_slot >= 1, "leak slot must have a predecessor");
  // The scenario's event times were laid out on the generator's slot grid;
  // snapshot indices assume the same grid, so the two slot lengths must
  // agree (see ScenarioConfig::hydraulic_step_s).
  const double slot_start = static_cast<double>(scenario.leak_slot) * options.hydraulic_step_s;
  for (const auto& event : scenario.events) {
    AQUA_REQUIRE(std::abs(event.start_time_s - slot_start) <= 1e-6,
                 "scenario slot length disagrees with the simulation hydraulic step");
  }
}

void SnapshotBatch::build_full(std::span<const LeakScenario> scenarios,
                               std::span<const std::size_t> indices,
                               const hydraulics::SimulationOptions& options, bool parallel) {
  const std::size_t max_elapsed = elapsed_slots_.back();
  std::atomic<std::size_t> steps{0}, solves{0};

  auto run_one = [&](std::size_t k) {
    const std::size_t i = indices[k];
    const LeakScenario& scenario = scenarios[i];
    hydraulics::SimulationOptions run_options = options;
    // Simulate just past the last snapshot we need. Operational/demand
    // windows may extend past it; the stepper simply never reaches them.
    run_options.duration_s =
        static_cast<double>(scenario.leak_slot + max_elapsed) * run_options.hydraulic_step_s;
    hydraulics::Simulation simulation(network_, run_options);
    simulation.schedule_leaks(scenario.events);
    simulation.schedule_operations(scenario.operations);
    simulation.schedule_demand_events(scenario.demand_events);
    simulation.set_tank_init_scale(scenario.tank_init_scale);
    const auto results = simulation.run();
    steps.fetch_add(results.num_steps(), std::memory_order_relaxed);
    solves.fetch_add(results.total_linear_solves(), std::memory_order_relaxed);
    extract_snapshots(results, scenario.leak_slot - 1, results, scenario, elapsed_slots_,
                      run_options.hydraulic_step_s, snapshots_[i]);
  };

  if (parallel) {
    ThreadPool::global().parallel_for(indices.size(), run_one);
  } else {
    for (std::size_t k = 0; k < indices.size(); ++k) run_one(k);
  }
  stats_.scenario_steps += steps.load();
  stats_.scenario_linear_solves += solves.load();
}

void SnapshotBatch::build_replay(std::span<const LeakScenario> scenarios,
                                 std::span<const std::size_t> indices,
                                 const hydraulics::SimulationOptions& options, bool parallel) {
  const std::size_t max_elapsed = elapsed_slots_.back();
  std::size_t max_slot = 0;
  for (std::size_t i : indices) {
    max_slot = std::max(max_slot, scenarios[i].leak_slot);
  }

  // One baseline run covers every scenario: checkpoints up to the deepest
  // leak slot, pre-leak snapshot rows for free.
  const hydraulics::BaselineTrajectory baseline(network_, options, max_slot - 1);
  stats_.baseline_steps = baseline.results().num_steps();
  stats_.baseline_linear_solves = baseline.results().total_linear_solves();

  // Engine pool: each worker grabs an idle engine (or builds one, cloning
  // the baseline's symbolic factorization) and returns it when done, so at
  // most pool-width engines exist no matter how many scenarios run.
  std::vector<std::unique_ptr<hydraulics::ReplayEngine>> idle;
  std::mutex pool_mutex;
  std::size_t engines_built = 0;
  auto acquire = [&]() -> std::unique_ptr<hydraulics::ReplayEngine> {
    {
      const std::lock_guard<std::mutex> lock(pool_mutex);
      if (!idle.empty()) {
        auto engine = std::move(idle.back());
        idle.pop_back();
        return engine;
      }
      ++engines_built;
    }
    return std::make_unique<hydraulics::ReplayEngine>(baseline);
  };
  auto release = [&](std::unique_ptr<hydraulics::ReplayEngine> engine) {
    const std::lock_guard<std::mutex> lock(pool_mutex);
    idle.push_back(std::move(engine));
  };

  std::atomic<std::size_t> steps{0}, solves{0};
  auto run_one = [&](std::size_t k) {
    const std::size_t i = indices[k];
    const LeakScenario& scenario = scenarios[i];
    auto engine = acquire();
    const hydraulics::ScenarioDynamics dynamics{scenario.events, scenario.operations,
                                                scenario.demand_events};
    const auto results = engine->replay(dynamics, scenario.leak_slot, max_elapsed + 1);
    steps.fetch_add(results.num_steps(), std::memory_order_relaxed);
    solves.fetch_add(results.total_linear_solves(), std::memory_order_relaxed);
    extract_snapshots(baseline.results(), scenario.leak_slot - 1, results, scenario,
                      elapsed_slots_, options.hydraulic_step_s, snapshots_[i]);
    release(std::move(engine));
  };

  if (parallel) {
    ThreadPool::global().parallel_for(indices.size(), run_one);
  } else {
    for (std::size_t k = 0; k < indices.size(); ++k) run_one(k);
  }
  stats_.scenario_steps += steps.load();
  stats_.scenario_linear_solves += solves.load();
  stats_.engines_built = engines_built;
}

const ScenarioSnapshots& SnapshotBatch::snapshots(std::size_t scenario) const {
  AQUA_REQUIRE(scenario < snapshots_.size(), "scenario index out of range");
  return snapshots_[scenario];
}

std::vector<double> SnapshotBatch::features(std::size_t scenario,
                                            const sensing::SensorSet& sensors,
                                            std::size_t elapsed_index,
                                            const sensing::NoiseModel& noise, Rng& rng,
                                            bool include_time_feature) const {
  std::vector<double> out(sensors.size() + (include_time_feature ? 1 : 0));
  features_into(scenario, sensors, elapsed_index, noise, rng, include_time_feature, {}, out);
  return out;
}

void SnapshotBatch::features_into(std::size_t scenario, const sensing::SensorSet& sensors,
                                  std::size_t elapsed_index, const sensing::NoiseModel& noise,
                                  Rng& rng, bool include_time_feature,
                                  std::span<const sensing::SensorFault> faults,
                                  std::span<double> out) const {
  AQUA_REQUIRE(scenario < snapshots_.size(), "scenario index out of range");
  AQUA_REQUIRE(elapsed_index < elapsed_slots_.size(), "elapsed index out of range");
  AQUA_REQUIRE(out.size() == sensors.size() + (include_time_feature ? 1 : 0),
               "output span does not match the feature layout");
  const ScenarioSnapshots& snap = snapshots_[scenario];
  // Absolute slots of the two readings, for the fault transforms.
  const std::size_t before_slot = snap.leak_slot - 1;
  const std::size_t after_slot = snap.leak_slot + elapsed_slots_[elapsed_index];

  std::size_t k = 0;
  for (const auto& sensor : sensors.sensors) {
    const bool pressure = sensor.kind == sensing::SensorKind::kPressure;
    const std::vector<double>& before_row = pressure ? snap.before_pressure : snap.before_flow;
    const std::vector<double>& after_row =
        pressure ? snap.after_pressure[elapsed_index] : snap.after_flow[elapsed_index];
    // A sensor set placed on another network indexes past these rows.
    if (sensor.index >= before_row.size()) {
      throw InvalidArgument("sensor '" + sensor.name + "' indexes " +
                            (pressure ? "node " : "link ") + std::to_string(sensor.index) +
                            " of a network with " + std::to_string(before_row.size()) +
                            (pressure ? " nodes" : " links"));
    }
    const double b = before_row[sensor.index];
    const double a = after_row[sensor.index];
    double before = b + rng.normal(0.0, noise.sigma(sensor.kind, b));
    double after = a + rng.normal(0.0, noise.sigma(sensor.kind, a));
    // Sensor-fault layer: post-noise, pre-Δ (sensing/sensors.hpp). The
    // fault list is tiny (a handful of draws), so a linear scan per
    // sensor beats materializing full reading vectors.
    for (const auto& fault : faults) {
      if (fault.sensor != k) continue;
      before = sensing::apply_sensor_fault(fault, before, before_slot);
      after = sensing::apply_sensor_fault(fault, after, after_slot);
    }
    out[k++] = after - before;
  }
  if (include_time_feature) out[k] = snap.day_fraction;
}

ml::MultiLabelDataset SnapshotBatch::build_dataset(std::span<const LeakScenario> scenarios,
                                                   const sensing::SensorSet& sensors,
                                                   std::size_t elapsed_index,
                                                   const sensing::NoiseModel& noise,
                                                   std::uint64_t seed,
                                                   bool include_time_feature) const {
  AQUA_REQUIRE(scenarios.size() == snapshots_.size(),
               "scenario list must match the simulated batch");
  AQUA_REQUIRE(!scenarios.empty(), "empty scenario batch");
  sensing::check_sensor_names(network_, sensors);

  const std::size_t feature_dim = sensors.size() + (include_time_feature ? 1 : 0);
  ml::MultiLabelDataset data;
  data.features = ml::Matrix(scenarios.size(), feature_dim);
  data.labels.resize(scenarios.size());
  for (const auto& sensor : sensors.sensors) data.feature_names.push_back(sensor.name);
  if (include_time_feature) data.feature_names.push_back("day_fraction");

  Rng root(seed);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Rng rng = root.split();
    const auto faults =
        sensing::resolve_sensor_faults(scenarios[i].sensor_faults, sensors.size());
    features_into(i, sensors, elapsed_index, noise, rng, include_time_feature, faults,
                  data.features.row(i));
    data.labels[i] = scenarios[i].truth;
  }
  data.check();
  return data;
}

}  // namespace aqua::core
