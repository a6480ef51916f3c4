// Batched EPANET++ execution for scenario corpora. Running one extended-
// period simulation per training scenario is the dominant cost of Phase I,
// so the batch (a) simulates the shared no-leak baseline once and replays
// each scenario from its leak-slot checkpoint (hydraulics/replay.hpp),
// paying only for post-leak steps (a scenario whose dynamics perturb the
// trajectory earlier runs on the same engine from step 0), (b)
// parallelizes replays on the process thread pool with a per-thread engine
// pool that shares one symbolic factorization per network, and (c) stores
// only the snapshots features need: the full network state at e.t−1 and
// at e.t+n for every elapsed count n of interest. Datasets for any sensor
// set / noise / elapsed-slot combination are then assembled without
// re-simulating.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scenario.hpp"
#include "ml/dataset.hpp"
#include "sensing/sensors.hpp"

namespace aqua::core {

/// Per-scenario snapshot pair set.
struct ScenarioSnapshots {
  std::vector<double> before_pressure;  // per node, at e.t - 1
  std::vector<double> before_flow;      // per link
  // Indexed by position in SnapshotBatch::elapsed_slots().
  std::vector<std::vector<double>> after_pressure;
  std::vector<std::vector<double>> after_flow;
  double day_fraction = 0.0;  // time-of-day of e.t in [0,1) (context feature)
  std::size_t leak_slot = 0;  // e.t (absolute slot of the "after" reference)
};

/// Simulation-cost accounting for one batch, the unit the Phase I perf
/// bench tracks (bench/phase1_training.cpp).
struct SnapshotBatchStats {
  std::size_t scenarios = 0;
  std::size_t baseline_steps = 0;          // solved once, shared by all scenarios
  std::size_t baseline_linear_solves = 0;  // Newton iterations of the baseline
  std::size_t scenario_steps = 0;          // per-scenario hydraulic steps solved
  std::size_t scenario_linear_solves = 0;
  std::size_t engines_built = 0;  // replay workers constructed (<= pool threads)
  std::size_t replayed = 0;       // scenarios resumed from the baseline checkpoint
  std::size_t full_run = 0;       // scenarios run from step 0

  std::size_t total_steps() const noexcept { return baseline_steps + scenario_steps; }
  std::size_t total_linear_solves() const noexcept {
    return baseline_linear_solves + scenario_linear_solves;
  }
};

class SnapshotBatch {
 public:
  /// Simulates every scenario once (in parallel) and keeps snapshots for
  /// each n in `elapsed_slots` (must be non-empty, ascending). Every
  /// scenario runs on a pool of replay engines: from the shared baseline's
  /// checkpoint at its leak slot when its dynamics are resumable there
  /// (ScenarioDynamics::resumable_at), from step 0 otherwise (tank
  /// drawdowns, windows before the leak), and from step 0 always when
  /// `use_replay` is false, which gives bit-identical snapshots at many
  /// more hydraulic solves (kept as the replay ≡ full check). stats()
  /// counts both populations. Throws InvalidArgument for a malformed
  /// scenario (ScenarioDynamics::validate) before simulating any.
  SnapshotBatch(const hydraulics::Network& network, std::span<const LeakScenario> scenarios,
                std::vector<std::size_t> elapsed_slots,
                hydraulics::SimulationOptions options = {}, bool parallel = true,
                bool use_replay = true);

  std::size_t size() const noexcept { return snapshots_.size(); }
  const std::vector<std::size_t>& elapsed_slots() const noexcept { return elapsed_slots_; }
  const ScenarioSnapshots& snapshots(std::size_t scenario) const;
  const hydraulics::Network& network() const noexcept { return network_; }
  const SnapshotBatchStats& stats() const noexcept { return stats_; }

  /// Δ-feature vector of one scenario for a sensor set at elapsed count
  /// `elapsed_slots()[elapsed_index]`, with fresh measurement noise from
  /// `rng` and no sensor faults (features_into with an empty fault span).
  std::vector<double> features(std::size_t scenario, const sensing::SensorSet& sensors,
                               std::size_t elapsed_index, const sensing::NoiseModel& noise,
                               Rng& rng, bool include_time_feature = true) const;

  /// The featurizer. Writes one Δ per sensor, then (when enabled) the
  /// time-of-day context feature, into `out`, whose size must be
  /// sensors.size() + (include_time_feature ? 1 : 0); dataset assembly
  /// points this directly at the ml::Matrix row. Each sensor's clean
  /// reading at slot e.t − 1 ("before") and at slot e.t + n ("after") gets
  /// Gaussian noise of NoiseModel::sigma(kind, reading), drawn from `rng`
  /// before then after, so the Δ noise has standard deviation
  /// √(σ_before² + σ_after²). Each faulted sensor's two noisy readings
  /// then pass through its fault transform (sensing::apply_sensor_fault)
  /// before the Δ is taken; faults draw nothing from `rng`. Throws
  /// InvalidArgument for a sensor whose index is outside this network's
  /// nodes (pressure) or links (flow).
  void features_into(std::size_t scenario, const sensing::SensorSet& sensors,
                     std::size_t elapsed_index, const sensing::NoiseModel& noise, Rng& rng,
                     bool include_time_feature, std::span<const sensing::SensorFault> faults,
                     std::span<double> out) const;

  /// Assembles a multi-label dataset over all scenarios for one sensor set
  /// and elapsed index. Noise is drawn deterministically from `seed`.
  /// Scenarios carrying sensor-fault draws have them resolved against
  /// `sensors` and applied to their rows. Throws InvalidArgument when a
  /// sensor's name is not that of the element it indexes on this network
  /// (sensing::check_sensor_names).
  ml::MultiLabelDataset build_dataset(std::span<const LeakScenario> scenarios,
                                      const sensing::SensorSet& sensors,
                                      std::size_t elapsed_index,
                                      const sensing::NoiseModel& noise, std::uint64_t seed,
                                      bool include_time_feature = true) const;

 private:
  void validate_scenario(const LeakScenario& scenario,
                         const hydraulics::SimulationOptions& options) const;

  const hydraulics::Network& network_;
  std::vector<std::size_t> elapsed_slots_;
  std::vector<ScenarioSnapshots> snapshots_;
  SnapshotBatchStats stats_;
};

}  // namespace aqua::core
