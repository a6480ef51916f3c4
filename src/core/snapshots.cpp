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

/// Extracts the before/after snapshot rows of one scenario. `before_results`
/// and `after_results` may come from different runs (shared baseline +
/// resumed run) or the same run from step 0; both are indexed by absolute
/// step through their start_step().
void extract_snapshots(const hydraulics::SimulationResults& before_results,
                       const hydraulics::SimulationResults& after_results,
                       const LeakScenario& scenario,
                       const std::vector<std::size_t>& elapsed_slots, double hydraulic_step_s,
                       ScenarioSnapshots& snap) {
  const std::size_t nodes = before_results.num_nodes();
  const std::size_t links = before_results.num_links();
  snap.before_pressure.resize(nodes);
  snap.before_flow.resize(links);
  const std::size_t before = scenario.leak_slot - 1 - before_results.start_step();
  for (std::size_t v = 0; v < nodes; ++v) {
    snap.before_pressure[v] = before_results.pressure(before, v);
  }
  for (std::size_t l = 0; l < links; ++l) snap.before_flow[l] = before_results.flow(before, l);

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

  // Each scenario starts at its leak slot when the no-leak baseline is
  // still its trajectory up to there, and at step 0 otherwise (tank
  // drawdowns, windows before the leak). `use_replay = false` starts every
  // scenario at step 0. A batch that resumes nothing still records a
  // one-step baseline: the engines clone its solver.
  std::vector<std::size_t> first_step(scenarios.size(), 0);
  std::size_t max_slot = 1;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::size_t slot = scenarios[i].leak_slot;
    if (use_replay && scenarios[i].dynamics().resumable_at(static_cast<double>(slot) *
                                                           options.hydraulic_step_s)) {
      first_step[i] = slot;
      max_slot = std::max(max_slot, slot);
      ++stats_.replayed;
    }
  }
  stats_.full_run = scenarios.size() - stats_.replayed;

  // One baseline run covers every resumed scenario: checkpoints up to the
  // deepest leak slot, pre-leak snapshot rows for free.
  const hydraulics::BaselineTrajectory baseline(network_, options, max_slot - 1);
  stats_.baseline_steps = baseline.results().num_steps();
  stats_.baseline_linear_solves = baseline.results().total_linear_solves();

  // Engine pool: each worker grabs an idle engine (or builds one, cloning
  // the baseline's symbolic factorization) and returns it when done, so at
  // most pool-width engines exist no matter how many scenarios run.
  std::vector<std::unique_ptr<hydraulics::ReplayEngine>> idle;
  std::mutex pool_mutex;
  auto acquire = [&]() -> std::unique_ptr<hydraulics::ReplayEngine> {
    {
      const std::lock_guard<std::mutex> lock(pool_mutex);
      if (!idle.empty()) {
        auto engine = std::move(idle.back());
        idle.pop_back();
        return engine;
      }
      ++stats_.engines_built;
    }
    return std::make_unique<hydraulics::ReplayEngine>(baseline);
  };
  auto release = [&](std::unique_ptr<hydraulics::ReplayEngine> engine) {
    const std::lock_guard<std::mutex> lock(pool_mutex);
    idle.push_back(std::move(engine));
  };

  const std::size_t max_elapsed = elapsed_slots_.back();
  std::atomic<std::size_t> steps{0}, solves{0};
  auto run_one = [&](std::size_t i) {
    const LeakScenario& scenario = scenarios[i];
    const std::size_t first = first_step[i];
    auto engine = acquire();
    // Simulate just past the last snapshot we need. Windows may extend
    // past it; the stepper simply never reaches them.
    const auto results =
        engine->replay(scenario.dynamics(), first, scenario.leak_slot + max_elapsed + 1 - first);
    steps.fetch_add(results.num_steps(), std::memory_order_relaxed);
    solves.fetch_add(results.total_linear_solves(), std::memory_order_relaxed);
    // A resumed scenario's pre-leak row is the baseline's.
    extract_snapshots(first == 0 ? results : baseline.results(), results, scenario,
                      elapsed_slots_, options.hydraulic_step_s, snapshots_[i]);
    release(std::move(engine));
  };

  if (parallel) {
    ThreadPool::global().parallel_for(scenarios.size(), run_one);
  } else {
    for (std::size_t i = 0; i < scenarios.size(); ++i) run_one(i);
  }
  stats_.scenario_steps = steps.load();
  stats_.scenario_linear_solves = solves.load();
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
  scenario.dynamics().validate(network_);
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
