#include "hydraulics/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace aqua::hydraulics {

SimulationResults::SimulationResults(std::size_t num_steps, std::size_t num_nodes,
                                     std::size_t num_links, std::size_t start_step)
    : times_(num_steps, 0.0),
      num_nodes_(num_nodes),
      num_links_(num_links),
      start_step_(start_step),
      heads_(num_steps * num_nodes, 0.0),
      pressures_(num_steps * num_nodes, 0.0),
      flows_(num_steps * num_links, 0.0),
      emitter_(num_steps * num_nodes, 0.0),
      emitter_total_(num_steps, 0.0) {}

std::size_t SimulationResults::step_at(double time_s) const {
  AQUA_REQUIRE(!times_.empty(), "no recorded steps");
  const auto it = std::upper_bound(times_.begin(), times_.end(), time_s);
  if (it == times_.begin()) return 0;
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

double SimulationResults::leaked_volume() const noexcept {
  if (times_.size() < 2) return 0.0;
  double volume = 0.0;
  for (std::size_t s = 0; s + 1 < times_.size(); ++s) {
    volume += 0.5 * (emitter_total_[s] + emitter_total_[s + 1]) * (times_[s + 1] - times_[s]);
  }
  return volume;
}

void SimulationResults::record(std::size_t step, double time_s, const HydraulicState& state) {
  times_[step] = time_s;
  std::copy(state.head.begin(), state.head.end(), heads_.begin() + step * num_nodes_);
  std::copy(state.pressure.begin(), state.pressure.end(),
            pressures_.begin() + step * num_nodes_);
  std::copy(state.flow.begin(), state.flow.end(), flows_.begin() + step * num_links_);
  std::copy(state.emitter_outflow.begin(), state.emitter_outflow.end(),
            emitter_.begin() + step * num_nodes_);
  double total = 0.0;
  for (double q : state.emitter_outflow) total += q;
  emitter_total_[step] = total;
  total_linear_solves_ += state.iterations;
}

void ScenarioDynamics::validate(const Network& network) const {
  const auto at_junction = [&](NodeId node) {
    return node < network.num_nodes() && network.node(node).type == NodeType::kJunction;
  };
  for (const LeakEvent& event : leaks) {
    AQUA_REQUIRE(at_junction(event.node), "leaks occur at junctions");
    AQUA_REQUIRE(std::isfinite(event.coefficient) && event.coefficient > 0.0,
                 "leak coefficient must be finite and positive");
    AQUA_REQUIRE(event.exponent > 0.0, "leak exponent must be positive");
    AQUA_REQUIRE(event.start_time_s >= 0.0, "leak start time must be non-negative");
    AQUA_REQUIRE(event.ramp_s >= 0.0, "leak ramp must be non-negative");
  }
  for (const OperationalEvent& op : operations) {
    AQUA_REQUIRE(op.link < network.num_links(), "operational event names an unknown link");
    AQUA_REQUIRE(op.start_time_s >= 0.0, "operational start time must be non-negative");
    AQUA_REQUIRE(op.end_time_s > op.start_time_s, "operational window must be non-empty");
  }
  for (const DemandEvent& event : demands) {
    AQUA_REQUIRE(at_junction(event.node), "demand events target junctions");
    AQUA_REQUIRE(std::isfinite(event.multiplier) && event.multiplier > 0.0,
                 "demand multiplier must be finite and positive");
    AQUA_REQUIRE(event.start_time_s >= 0.0, "demand-event start time must be non-negative");
    AQUA_REQUIRE(event.end_time_s > event.start_time_s, "demand-event window must be non-empty");
  }
  AQUA_REQUIRE(std::isfinite(tank_init_scale) && tank_init_scale > 0.0,
               "tank init scale must be finite and positive");
}

bool ScenarioDynamics::resumable_at(double time_s) const noexcept {
  // The tolerance absorbs the rounding of slot * step products.
  const auto from_then = [earliest = time_s - 1e-9](const auto& event) {
    return event.start_time_s >= earliest;
  };
  return tank_init_scale == 1.0 && std::ranges::all_of(leaks, from_then) &&
         std::ranges::all_of(operations, from_then) && std::ranges::all_of(demands, from_then);
}

EpsStepper::EpsStepper(Network& network, const GgaSolver& solver,
                       const SimulationOptions& options)
    : network_(network), solver_(solver), options_(options) {
  const std::size_t n = network_.num_nodes();
  tank_level_.assign(n, 0.0);
  demands_.assign(n, 0.0);
  fixed_.assign(n, 0.0);

  // Base link statuses, so operational closures are reversible: a link
  // inside no active window always reads its construction-time status.
  base_status_.reserve(network_.num_links());
  for (LinkId l = 0; l < network_.num_links(); ++l) {
    base_status_.push_back(network_.link(l).status);
  }

  // Tank-incident links, gathered once: integrating levels by scanning all
  // links for every node each step is O(nodes * links) per step.
  for (NodeId v = 0; v < n; ++v) {
    const Node& node = network_.node(v);
    if (node.type != NodeType::kTank) continue;
    const double area = 0.25 * 3.141592653589793 * node.diameter * node.diameter;
    tanks_.push_back({v, area, {}});
  }
  for (LinkId l = 0; l < network_.num_links(); ++l) {
    const Link& link = network_.link(l);
    for (auto& tank : tanks_) {
      if (link.to == tank.node) tank.links.emplace_back(l, 1.0);
      if (link.from == tank.node) tank.links.emplace_back(l, -1.0);
    }
  }
}

EpsStepper::~EpsStepper() {
  for (LinkId l = 0; l < base_status_.size(); ++l) network_.link(l).status = base_status_[l];
}

void EpsStepper::install(const ScenarioDynamics& dynamics) {
  dynamics.validate(network_);
  for (LinkId l = 0; l < base_status_.size(); ++l) network_.link(l).status = base_status_[l];
  network_.clear_emitters();
  dynamics_ = dynamics;
}

void EpsStepper::start(const ScenarioDynamics& dynamics) {
  install(dynamics);
  std::fill(tank_level_.begin(), tank_level_.end(), 0.0);
  const double scale = dynamics_.tank_init_scale;
  for (const auto& tank : tanks_) {
    const Node& node = network_.node(tank.node);
    double level = node.init_level;
    // Only the non-default path touches the arithmetic: scale 1.0 must be
    // bit-identical to the pre-variant engine, clamp included.
    if (scale != 1.0) level = std::clamp(level * scale, node.min_level, node.max_level);
    tank_level_[tank.node] = level;
  }
  have_previous_ = false;
  next_step_ = 0;
}

void EpsStepper::resume(const ScenarioDynamics& dynamics, std::size_t step,
                        std::span<const double> tank_level, HydraulicState previous) {
  AQUA_REQUIRE(step >= 1, "resume requires a predecessor step for the warm start");
  AQUA_REQUIRE(tank_level.size() == network_.num_nodes(), "tank levels must be per-node");
  AQUA_REQUIRE(previous.head.size() == network_.num_nodes() &&
                   previous.flow.size() == network_.num_links(),
               "warm-start state does not match the network");
  install(dynamics);
  AQUA_REQUIRE(dynamics_.resumable_at(static_cast<double>(step) * options_.hydraulic_step_s),
               "cannot resume a scenario that changes the trajectory before the resume step: "
               "the checkpoint would be stale");
  std::copy(tank_level.begin(), tank_level.end(), tank_level_.begin());
  previous_ = std::move(previous);
  have_previous_ = true;
  next_step_ = step;
}

const HydraulicState& EpsStepper::advance() {
  const std::size_t n = network_.num_nodes();
  const double t = static_cast<double>(next_step_) * options_.hydraulic_step_s;

  // Activate scheduled leaks whose start time has arrived; emitters stay
  // active for the rest of the run (a broken pipe does not heal itself).
  // coefficient_at() is monotone non-decreasing, so ramping leaks re-stamp
  // a larger EC each step and constant leaks stamp once, exactly as before.
  for (const LeakEvent& event : dynamics_.leaks) {
    const double coefficient = event.coefficient_at(t);
    if (network_.node(event.node).emitter_coefficient < coefficient) {
      network_.set_emitter(event.node, coefficient, event.exponent);
    }
  }

  // Operational windows: reset every affected link to its base status,
  // then close the ones inside an active window, so overlapping windows
  // compose and expired windows reopen their link.
  for (const OperationalEvent& op : dynamics_.operations) {
    network_.link(op.link).status = base_status_[op.link];
  }
  for (const OperationalEvent& op : dynamics_.operations) {
    if (op.start_time_s <= t && t < op.end_time_s) {
      network_.link(op.link).status = LinkStatus::kClosed;
    }
  }

  const auto period = static_cast<std::size_t>(t / options_.pattern_step_s);
  for (NodeId v = 0; v < n; ++v) {
    const Node& node = network_.node(v);
    demands_[v] = network_.demand_at(v, period);
    if (node.type == NodeType::kReservoir) fixed_[v] = node.elevation;
    if (node.type == NodeType::kTank) fixed_[v] = node.elevation + tank_level_[v];
  }
  for (const DemandEvent& event : dynamics_.demands) {
    if (event.start_time_s <= t && t < event.end_time_s) {
      demands_[event.node] *= event.multiplier;
    }
  }

  HydraulicState state = solver_.solve(demands_, fixed_, have_previous_ ? &previous_ : nullptr);

  // Integrate tank levels over the step (explicit Euler, clamped). The
  // integrated levels feed the *next* step, so doing this unconditionally
  // (full runs skip it after the last step) cannot change recorded values.
  for (const auto& tank : tanks_) {
    double net_inflow = 0.0;
    for (const auto& [l, sign] : tank.links) net_inflow += sign * state.flow[l];
    const Node& node = network_.node(tank.node);
    tank_level_[tank.node] += net_inflow * options_.hydraulic_step_s / tank.area;
    tank_level_[tank.node] = std::clamp(tank_level_[tank.node], node.min_level, node.max_level);
  }

  previous_ = std::move(state);
  have_previous_ = true;
  ++next_step_;
  return previous_;
}

Simulation::Simulation(Network network, SimulationOptions options)
    : network_(std::move(network)), options_(options) {
  AQUA_REQUIRE(std::isfinite(options_.duration_s) && options_.duration_s > 0.0,
               "duration must be positive and finite");
  AQUA_REQUIRE(std::isfinite(options_.hydraulic_step_s) && options_.hydraulic_step_s > 0.0,
               "hydraulic step must be positive and finite");
  // num_steps() converts the step count to size_t, which must hold it.
  AQUA_REQUIRE(options_.duration_s / options_.hydraulic_step_s <
                   static_cast<double>(std::numeric_limits<std::size_t>::max()),
               "duration / hydraulic step is too many steps");
  AQUA_REQUIRE(options_.pattern_step_s > 0.0, "pattern step must be positive");
  network_.validate();
  network_.clear_emitters();
}

std::size_t Simulation::num_steps() const noexcept {
  // floor() of the raw quotient silently drops the final step whenever an
  // exact multiple lands at k - ulp (e.g. 0.3 / 0.1 == 2.999...96); the
  // epsilon absorbs that representation error without admitting genuinely
  // short horizons.
  const double quotient = options_.duration_s / options_.hydraulic_step_s;
  return static_cast<std::size_t>(std::floor(quotient + 1e-9)) + 1;
}

SimulationResults Simulation::run(const ScenarioDynamics& dynamics) {
  const std::size_t steps = num_steps();
  GgaSolver solver(network_, options_.solver);
  SimulationResults results(steps, network_.num_nodes(), network_.num_links());
  EpsStepper stepper(network_, solver, options_);
  stepper.start(dynamics);
  for (std::size_t step = 0; step < steps; ++step) {
    const double t = stepper.next_time();
    results.record(step, t, stepper.advance());
  }
  return results;
}

}  // namespace aqua::hydraulics
