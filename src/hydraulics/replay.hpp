// Checkpointed scenario replay. Phase I batches simulate thousands of leak
// scenarios that all share one pre-leak trajectory: every step before the
// leak slot is the identical no-leak baseline. BaselineTrajectory runs
// that baseline once, recording per-step hydraulic state and tank levels
// as resumable checkpoints; ReplayEngine then restores the checkpoint at a
// scenario's leak slot and simulates only the post-leak steps. Because
// tank integration is explicit Euler and the GGA warm start is a pure
// function of the previous step's heads/flows, the replayed tail is
// bit-identical to a full run — asserted, not approximate (tests/
// test_replay.cpp). Per-scenario cost drops from O(leak_slot + elapsed)
// hydraulic solves to O(elapsed + 1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hydraulics/network.hpp"
#include "hydraulics/simulation.hpp"
#include "hydraulics/solver.hpp"

namespace aqua::hydraulics {

/// The no-leak baseline of one network under one set of simulation
/// options, run once through steps [0, last_step] and checkpointed so any
/// later step can be resumed exactly. Immutable after construction and
/// safe to share across threads.
class BaselineTrajectory {
 public:
  /// Simulates the healthy network (emitters cleared) for `last_step + 1`
  /// steps, recording results plus the tank levels entering every step in
  /// [0, last_step + 1] — so a resume at any step <= last_step + 1 has its
  /// checkpoint available.
  BaselineTrajectory(const Network& network, SimulationOptions options, std::size_t last_step);

  const Network& network() const noexcept { return network_; }
  const SimulationOptions& options() const noexcept { return options_; }
  std::size_t last_step() const noexcept { return last_step_; }

  /// Baseline time series for steps [0, last_step] — also the pre-leak
  /// rows of every scenario that shares these options.
  const SimulationResults& results() const noexcept { return results_; }

  /// The solver whose symbolic factorization (min-degree ordering, factor
  /// pattern, row schedules) replay engines clone instead of recomputing.
  const GgaSolver& solver() const noexcept { return solver_; }

  /// Per-node tank levels entering `step` (step <= last_step + 1).
  std::span<const double> tank_levels_entering(std::size_t step) const;

  /// Warm-start state at `step` (heads + flows copied from the recorded
  /// baseline; step <= last_step).
  HydraulicState state_at(std::size_t step) const;

  /// True when a resume at `step` has both its checkpoint halves: tank
  /// levels entering `step` and the state of `step - 1`.
  bool covers_resume_at(std::size_t step) const noexcept {
    return step >= 1 && step <= last_step_ + 1;
  }

 private:
  Network network_;  // healthy private copy (emitters cleared)
  SimulationOptions options_;
  std::size_t last_step_;
  GgaSolver solver_;
  SimulationResults results_;
  std::vector<double> tank_levels_;  // (last_step + 2) x num_nodes, row-major
};

/// Everything a scenario injects into the hydraulic trajectory beyond the
/// healthy baseline: leaks (constant or ramping EC), pump-outage /
/// valve-closure windows, and demand surges. Tank-drawdown starts are
/// deliberately absent — they perturb step 0, so no baseline checkpoint is
/// valid and such scenarios must run full (Simulation::set_tank_init_scale
/// + Simulation::run).
struct ScenarioDynamics {
  std::span<const LeakEvent> leaks;
  std::span<const OperationalEvent> operations;
  std::span<const DemandEvent> demands;
};

/// Replays leak scenarios against a shared baseline. Each engine owns a
/// private network copy (leak emitters and operational closures are
/// engine-local state) and a solver cloned from the baseline's symbolic
/// factorization, so constructing one per worker thread costs no
/// ordering/analysis work and replay() never races: one engine per thread,
/// many scenarios per engine.
class ReplayEngine {
 public:
  explicit ReplayEngine(const BaselineTrajectory& baseline);

  const BaselineTrajectory& baseline() const noexcept { return baseline_; }

  /// Resumes the baseline at `resume_step` with `events` scheduled and
  /// simulates `num_steps` steps, returning results whose start_step() is
  /// `resume_step`. Every event must start at or after the resume time.
  SimulationResults replay(std::span<const LeakEvent> events, std::size_t resume_step,
                           std::size_t num_steps);

  /// Variant-aware replay: leaks plus operational and demand events, all
  /// starting at or after the resume time (earlier events would have
  /// perturbed the checkpoint — use a full run for those scenarios).
  SimulationResults replay(const ScenarioDynamics& dynamics, std::size_t resume_step,
                           std::size_t num_steps);

 private:
  const BaselineTrajectory& baseline_;
  Network network_;  // private copy; replay() toggles its emitters
  GgaSolver solver_;
  EpsStepper stepper_;
};

}  // namespace aqua::hydraulics
