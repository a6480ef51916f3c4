// Extended-period simulation (EPS): steps the steady-state GGA solver
// through time, driving junction demands from diurnal patterns and
// integrating tank levels between steps. The hydraulic time step doubles
// as the IoT sampling interval (15 minutes in the paper, Sec. V-A), and
// leak events e = (l, s, t) are scheduled as emitters that activate at
// their starting time slot. Beyond the paper's instantaneous constant-EC
// break, the stepper injects the scenario-diversity variants (DESIGN.md
// §15): ramping-EC leaks, timed pump-outage / valve-closure windows,
// demand surges, and tank-drawdown starts.
//
// Because tank integration is explicit Euler and the GGA warm start only
// reads the previous step's heads and flows, the hydraulic state at step k
// is a pure function of (tank levels entering k, state at k-1, absolute
// time). The replay engine (hydraulics/replay.hpp) exploits this to resume
// a run mid-trajectory with bit-identical results.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hydraulics/network.hpp"
#include "hydraulics/solver.hpp"

namespace aqua::hydraulics {

struct SimulationOptions {
  double duration_s = 24.0 * 3600.0;
  double hydraulic_step_s = 900.0;  // 15 minutes, the paper's IoT slot
  double pattern_step_s = 3600.0;
  SolverOptions solver;
};

/// A leak event e = (l, s, t): location (junction), size (emitter
/// coefficient EC in Eq. 1) and starting time. `ramp_s > 0` makes the
/// leak grow instead of appearing at full size: the EC rises linearly
/// from 0 at `start_time_s` to `coefficient` at `start_time_s + ramp_s`
/// (a corrosion pinhole opening up, vs. the paper's instantaneous break).
struct LeakEvent {
  NodeId node = 0;
  double coefficient = 0.0;  // e.s — "the greater EC the more severity"
  double exponent = 0.5;     // beta, 0.5 "for general purpose"
  double start_time_s = 0.0;  // e.t
  double ramp_s = 0.0;        // 0 = constant-EC (the paper's model)

  /// Effective EC at absolute time `time_s`; monotone non-decreasing in
  /// time, so stepping engines can apply it as a max-so-far update.
  double coefficient_at(double time_s) const noexcept {
    if (time_s < start_time_s) return 0.0;
    if (ramp_s <= 0.0) return coefficient;
    const double fraction = (time_s - start_time_s) / ramp_s;
    return fraction >= 1.0 ? coefficient : coefficient * fraction;
  }
};

/// A timed operational event: the link is forced to LinkStatus::kClosed
/// while `start_time_s <= t < end_time_s` and restored to its base status
/// outside the window — a pump outage (link is a pump) or a valve/gate
/// closure (valve or pipe). Overlapping events on one link compose as
/// "closed while any window is active".
struct OperationalEvent {
  LinkId link = 0;
  double start_time_s = 0.0;
  double end_time_s = 0.0;  // exclusive; must exceed start_time_s
};

/// A demand surge: the node's pattern-driven demand is multiplied by
/// `multiplier` while `start_time_s <= t < end_time_s` (main flushing, a
/// hydrant opening, an industrial draw). Multiple events on one node
/// compose multiplicatively.
struct DemandEvent {
  NodeId node = 0;
  double multiplier = 1.0;  // > 0
  double start_time_s = 0.0;
  double end_time_s = 0.0;  // exclusive; must exceed start_time_s
};

/// Dense step-major time series produced by an EPS run. A results object
/// may cover only a tail window of the horizon (replay): `start_step()` is
/// the absolute step index of row 0, all per-step accessors take indices
/// relative to it, and `times()` stay absolute.
class SimulationResults {
 public:
  SimulationResults(std::size_t num_steps, std::size_t num_nodes, std::size_t num_links,
                    std::size_t start_step = 0);

  std::size_t num_steps() const noexcept { return times_.size(); }
  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_links() const noexcept { return num_links_; }
  /// Absolute step index of the first recorded row (0 for full runs).
  std::size_t start_step() const noexcept { return start_step_; }

  double time(std::size_t step) const { return times_.at(step); }
  const std::vector<double>& times() const noexcept { return times_; }

  double head(std::size_t step, NodeId node) const { return heads_[step * num_nodes_ + node]; }
  double pressure(std::size_t step, NodeId node) const {
    return pressures_[step * num_nodes_ + node];
  }
  double flow(std::size_t step, LinkId link) const { return flows_[step * num_links_ + link]; }
  double emitter_outflow(std::size_t step, NodeId node) const {
    return emitter_[step * num_nodes_ + node];
  }
  std::span<const double> heads_at(std::size_t step) const {
    return {heads_.data() + step * num_nodes_, num_nodes_};
  }
  std::span<const double> flows_at(std::size_t step) const {
    return {flows_.data() + step * num_links_, num_links_};
  }

  /// Step index of the sample at or immediately before `time_s`.
  std::size_t step_at(double time_s) const;

  /// Total leaked volume across the run [m^3] (trapezoidal in steps).
  double leaked_volume() const noexcept;

  /// Newton iterations (== inner linear solves) summed over all recorded
  /// steps — the unit the perf benches track.
  std::size_t total_linear_solves() const noexcept { return total_linear_solves_; }

  // Writers used by the engine; `step` is relative to start_step().
  void record(std::size_t step, double time_s, const HydraulicState& state);

 private:
  std::vector<double> times_;
  std::size_t num_nodes_;
  std::size_t num_links_;
  std::size_t start_step_ = 0;
  std::vector<double> heads_;
  std::vector<double> pressures_;
  std::vector<double> flows_;
  std::vector<double> emitter_;
  std::vector<double> emitter_total_;  // per step, filled by record()
  std::size_t total_linear_solves_ = 0;
  double step_s_ = 0.0;

  friend class Simulation;
  friend class BaselineTrajectory;
  friend class ReplayEngine;
};

/// Low-level EPS stepping core shared by Simulation::run, the baseline
/// recorder and the scenario replayer. Advancing one step activates due
/// leaks, solves the snapshot, then integrates tank levels — exactly the
/// arithmetic of a full run, so a stepper resumed from a checkpoint
/// reproduces the tail of that run bit for bit.
class EpsStepper {
 public:
  /// Binds to a network (mutated: emitter activation), a solver built for
  /// it, and the leak schedule. All referents must outlive the stepper.
  EpsStepper(Network& network, const GgaSolver& solver, const SimulationOptions& options,
             std::span<const LeakEvent> events);

  /// Replaces the leak schedule (used by engines that replay many
  /// scenarios through one stepper). Call before start()/resume().
  void set_events(std::span<const LeakEvent> events) noexcept { events_ = events; }

  /// Replaces the operational-event schedule. Links closed by the previous
  /// schedule are restored to their base status immediately, so swapping
  /// schedules between scenarios never leaks a closure. Call before
  /// start()/resume().
  void set_operations(std::span<const OperationalEvent> operations);

  /// Replaces the demand-event schedule. Call before start()/resume().
  void set_demand_events(std::span<const DemandEvent> demands) noexcept {
    demand_events_ = demands;
  }

  /// Scales every tank's initial level at start() (tank-drawdown starts;
  /// levels clamp to [min_level, max_level]). 1.0 — the default — is the
  /// paper's baseline and is bit-identical to the pre-variant behavior.
  /// resume() rejects scales != 1.0: the checkpoint was recorded with
  /// baseline initial levels, so a scaled start invalidates it.
  void set_tank_init_scale(double scale);

  /// Positions at absolute step 0 with initial tank levels, no warm start,
  /// and all emitters cleared.
  void start();

  /// Positions at absolute step `step` from a checkpoint: per-node tank
  /// levels entering the step and the hydraulic state of step-1 (warm
  /// start). Emitters are cleared; events re-activate as time reaches them,
  /// so every scheduled event must start at or after the resume time.
  void resume(std::size_t step, std::span<const double> tank_level, HydraulicState previous);

  /// Solves the current step and integrates tank levels across it.
  /// The returned reference is valid until the next advance().
  const HydraulicState& advance();

  /// Current time of the next step [s].
  double next_time() const noexcept {
    return static_cast<double>(next_step_) * options_.hydraulic_step_s;
  }
  /// Per-node tank levels entering the next step (junction entries are 0).
  const std::vector<double>& tank_levels() const noexcept { return tank_level_; }

 private:
  struct TankLinks {
    NodeId node;
    double area;
    std::vector<std::pair<LinkId, double>> links;  // link id, inflow sign
  };

  /// Restores every link named by the current operational schedule to its
  /// base (construction-time) status.
  void restore_operational_status();

  Network& network_;
  const GgaSolver& solver_;
  const SimulationOptions& options_;
  std::span<const LeakEvent> events_;
  std::span<const OperationalEvent> operations_;
  std::span<const DemandEvent> demand_events_;
  std::vector<LinkStatus> base_status_;  // per link, captured at construction
  double tank_init_scale_ = 1.0;
  std::vector<TankLinks> tanks_;
  std::vector<double> tank_level_;  // per node, entering next_step_
  std::vector<double> demands_, fixed_;
  HydraulicState previous_;
  bool have_previous_ = false;
  std::size_t next_step_ = 0;
};

/// Extended-period simulation engine. Owns a copy of the network so leak
/// scheduling never mutates the caller's model.
class Simulation {
 public:
  Simulation(Network network, SimulationOptions options = {});

  /// Schedules a leak; multiple events may target different nodes with the
  /// same start time (the paper's concurrent multi-failure case).
  void schedule_leak(const LeakEvent& event);
  void schedule_leaks(const std::vector<LeakEvent>& events);

  /// Schedules a pump outage / valve closure window on any link.
  void schedule_operation(const OperationalEvent& event);
  void schedule_operations(const std::vector<OperationalEvent>& events);

  /// Schedules a demand-surge window on a junction.
  void schedule_demand_event(const DemandEvent& event);
  void schedule_demand_events(const std::vector<DemandEvent>& events);

  /// Tank-drawdown start: scales every tank's initial level (see
  /// EpsStepper::set_tank_init_scale). No baseline checkpoint is valid for
  /// a scaled start, so such a scenario runs full (EpsStepper::resume
  /// rejects scales != 1.0).
  void set_tank_init_scale(double scale);

  const Network& network() const noexcept { return network_; }
  const SimulationOptions& options() const noexcept { return options_; }
  const std::vector<LeakEvent>& events() const noexcept { return events_; }
  const std::vector<OperationalEvent>& operations() const noexcept { return operations_; }
  const std::vector<DemandEvent>& demand_events() const noexcept { return demand_events_; }
  double tank_init_scale() const noexcept { return tank_init_scale_; }
  std::size_t num_steps() const noexcept;

  /// Runs the EPS and returns recorded time series. Repeatable: each call
  /// restarts from initial tank levels. ReplayEngine::replay resumes the
  /// same stepping mid-run, bit-identical to the tail of this.
  SimulationResults run();

 private:
  Network network_;
  SimulationOptions options_;
  std::vector<LeakEvent> events_;
  std::vector<OperationalEvent> operations_;
  std::vector<DemandEvent> demand_events_;
  double tank_init_scale_ = 1.0;
};

}  // namespace aqua::hydraulics
