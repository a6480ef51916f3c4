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

/// Everything a scenario injects into one trajectory beyond the healthy
/// network: leaks, pump-outage / valve-closure windows, demand surges and
/// a tank-drawdown start (every tank's initial level times
/// `tank_init_scale`, clamped to its [min_level, max_level]; 1.0 is the
/// paper's baseline and leaves the arithmetic untouched). The default value
/// is the healthy run. The spans are views: what they refer to must outlive
/// every run that takes them.
struct ScenarioDynamics {
  std::span<const LeakEvent> leaks{};
  std::span<const OperationalEvent> operations{};
  std::span<const DemandEvent> demands{};
  double tank_init_scale = 1.0;

  /// Throws InvalidArgument unless every field is well-formed on `network`:
  /// leaks at junctions with a finite EC > 0, an exponent > 0, start >= 0
  /// and ramp >= 0; closures on links of the network; surges at junctions
  /// with a finite multiplier > 0; every window with end > start >= 0; a
  /// finite scale > 0. Every trajectory path (EpsStepper::start and
  /// resume, so Simulation::run and ReplayEngine::replay) calls it.
  void validate(const Network& network) const;

  /// True when a checkpoint of the healthy baseline taken at `time_s` is
  /// still this scenario's state there: the tank levels start unscaled and
  /// every leak and window starts at or after `time_s`.
  bool resumable_at(double time_s) const noexcept;
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
};

/// Low-level EPS stepping core shared by Simulation::run, the baseline
/// recorder and the scenario replayer. Advancing one step activates due
/// leaks, solves the snapshot, then integrates tank levels — exactly the
/// arithmetic of a full run, so a stepper resumed from a checkpoint
/// reproduces the tail of that run bit for bit.
class EpsStepper {
 public:
  /// Binds to a network (mutated: emitters and operational link status), a
  /// solver built for it, and the options. All referents must outlive the
  /// stepper.
  EpsStepper(Network& network, const GgaSolver& solver, const SimulationOptions& options);
  /// Restores every link to its construction-time status, so no closure
  /// outlives the stepper (a later stepper on the same network would take
  /// it for the link's base status).
  ~EpsStepper();
  EpsStepper(const EpsStepper&) = delete;
  EpsStepper& operator=(const EpsStepper&) = delete;

  /// Validates `dynamics` and positions at absolute step 0 with its initial
  /// tank levels, no warm start, all emitters cleared and every link at its
  /// base status. The stepper keeps the dynamics' views until the next
  /// start() or resume().
  void start(const ScenarioDynamics& dynamics);

  /// Validates `dynamics` and positions at absolute step `step` from a
  /// checkpoint: per-node tank levels entering the step and the hydraulic
  /// state of step-1 (warm start). Emitters are cleared and links restored
  /// as in start(); events activate as time reaches them. Throws
  /// InvalidArgument unless the dynamics are resumable_at the step's time.
  void resume(const ScenarioDynamics& dynamics, std::size_t step,
              std::span<const double> tank_level, HydraulicState previous);

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

  /// Validates and takes `dynamics`: every link back to its base status
  /// (so a closure of the outgoing scenario never leaks into the next) and
  /// every emitter cleared.
  void install(const ScenarioDynamics& dynamics);

  Network& network_;
  const GgaSolver& solver_;
  const SimulationOptions& options_;
  ScenarioDynamics dynamics_;
  std::vector<LinkStatus> base_status_;  // per link, captured at construction
  std::vector<TankLinks> tanks_;
  std::vector<double> tank_level_;  // per node, entering next_step_
  std::vector<double> demands_, fixed_;
  HydraulicState previous_;
  bool have_previous_ = false;
  std::size_t next_step_ = 0;
};

/// Extended-period simulation engine from t = 0, the full-run oracle the
/// replay engine is tested against. Owns a copy of the network so a run
/// never mutates the caller's model.
class Simulation {
 public:
  Simulation(Network network, SimulationOptions options = {});

  const Network& network() const noexcept { return network_; }
  const SimulationOptions& options() const noexcept { return options_; }
  std::size_t num_steps() const noexcept;

  /// Runs the EPS under `dynamics` (validated; the default is the healthy
  /// network) and returns recorded time series. Repeatable: each call
  /// restarts from initial tank levels. ReplayEngine::replay runs the same
  /// stepping, bit-identical to this.
  SimulationResults run(const ScenarioDynamics& dynamics = {});

 private:
  Network network_;
  SimulationOptions options_;
};

}  // namespace aqua::hydraulics
