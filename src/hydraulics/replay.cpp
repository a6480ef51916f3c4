#include "hydraulics/replay.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace aqua::hydraulics {
namespace {

Network healthy_copy(const Network& network) {
  Network copy = network;
  copy.validate();
  copy.clear_emitters();
  return copy;
}

}  // namespace

BaselineTrajectory::BaselineTrajectory(const Network& network, SimulationOptions options,
                                       std::size_t last_step)
    : network_(healthy_copy(network)),
      options_(options),
      last_step_(last_step),
      solver_(network_, options_.solver),
      results_(last_step + 1, network_.num_nodes(), network_.num_links()) {
  AQUA_REQUIRE(options_.hydraulic_step_s > 0.0, "hydraulic step must be positive");
  AQUA_REQUIRE(options_.pattern_step_s > 0.0, "pattern step must be positive");

  const std::size_t n = network_.num_nodes();
  tank_levels_.assign((last_step_ + 2) * n, 0.0);

  EpsStepper stepper(network_, solver_, options_);
  stepper.start({});
  for (std::size_t step = 0; step <= last_step_; ++step) {
    std::copy(stepper.tank_levels().begin(), stepper.tank_levels().end(),
              tank_levels_.begin() + step * n);
    const double t = stepper.next_time();
    results_.record(step, t, stepper.advance());
  }
  // Levels entering step last_step + 1, so a resume immediately after the
  // recorded horizon (the common "leak starts at last_step + 1" layout)
  // still has its checkpoint.
  std::copy(stepper.tank_levels().begin(), stepper.tank_levels().end(),
            tank_levels_.begin() + (last_step_ + 1) * n);
}

std::span<const double> BaselineTrajectory::tank_levels_entering(std::size_t step) const {
  AQUA_REQUIRE(step <= last_step_ + 1, "step beyond the recorded baseline");
  const std::size_t n = network_.num_nodes();
  return {tank_levels_.data() + step * n, n};
}

HydraulicState BaselineTrajectory::state_at(std::size_t step) const {
  AQUA_REQUIRE(step <= last_step_, "step beyond the recorded baseline");
  HydraulicState state;
  const auto heads = results_.heads_at(step);
  const auto flows = results_.flows_at(step);
  state.head.assign(heads.begin(), heads.end());
  state.flow.assign(flows.begin(), flows.end());
  state.converged = true;
  return state;
}

ReplayEngine::ReplayEngine(const BaselineTrajectory& baseline)
    : baseline_(baseline),
      network_(baseline.network()),
      solver_(network_, baseline.solver()),
      stepper_(network_, solver_, baseline_.options()) {}

SimulationResults ReplayEngine::replay(const ScenarioDynamics& dynamics,
                                       std::size_t first_step, std::size_t num_steps) {
  AQUA_REQUIRE(num_steps > 0, "replay needs at least one step");
  AQUA_REQUIRE(first_step == 0 || baseline_.covers_resume_at(first_step),
               "resume step not covered by the baseline trajectory");

  SimulationResults results(num_steps, network_.num_nodes(), network_.num_links(), first_step);
  if (first_step == 0) {
    stepper_.start(dynamics);
  } else {
    stepper_.resume(dynamics, first_step, baseline_.tank_levels_entering(first_step),
                    baseline_.state_at(first_step - 1));
  }
  for (std::size_t step = 0; step < num_steps; ++step) {
    const double t = stepper_.next_time();
    results.record(step, t, stepper_.advance());
  }
  return results;
}

}  // namespace aqua::hydraulics
