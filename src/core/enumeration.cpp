#include "core/enumeration.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace aqua::core {

namespace {

hydraulics::Network without_emitters(const hydraulics::Network& network) {
  hydraulics::Network healthy = network;
  healthy.clear_emitters();
  return healthy;
}

std::vector<double> fixed_heads_of(const hydraulics::Network& network) {
  std::vector<double> fixed(network.num_nodes(), 0.0);
  for (hydraulics::NodeId v = 0; v < network.num_nodes(); ++v) {
    const auto& node = network.node(v);
    if (node.type == hydraulics::NodeType::kReservoir) fixed[v] = node.elevation;
    if (node.type == hydraulics::NodeType::kTank) fixed[v] = node.elevation + node.init_level;
  }
  return fixed;
}

std::vector<double> demands_of(const hydraulics::Network& network, std::size_t period) {
  std::vector<double> demands(network.num_nodes(), 0.0);
  for (hydraulics::NodeId v = 0; v < network.num_nodes(); ++v) {
    demands[v] = network.demand_at(v, period);
  }
  return demands;
}

/// Trial hypotheses can push the network into hydraulically infeasible
/// regimes (several large emitters at once); those solves may not
/// converge and simply mean "this hypothesis does not explain the data",
/// so they score an infinite residual instead of aborting the search.
hydraulics::SolverOptions trial_options() {
  hydraulics::SolverOptions options;
  options.throw_on_divergence = false;
  return options;
}

/// One worker's trial network and the solver cloned onto it. The GGA
/// solver re-reads emitters on every solve, so one context serves every
/// hypothesis of a localize() call. Pinned in place: the solver binds the
/// network member by reference.
struct TrialContext {
  TrialContext(const hydraulics::Network& healthy, const hydraulics::GgaSolver& prototype)
      : network(healthy), solver(network, prototype) {}
  TrialContext(const TrialContext&) = delete;
  TrialContext& operator=(const TrialContext&) = delete;

  hydraulics::Network network;
  const hydraulics::GgaSolver solver;
};

}  // namespace

EnumerationLocalizer::EnumerationLocalizer(const hydraulics::Network& network,
                                           sensing::SensorSet sensors, EnumerationConfig config)
    : labels_(network),
      sensors_(std::move(sensors)),
      config_(std::move(config)),
      healthy_(without_emitters(network)),
      fixed_heads_(fixed_heads_of(healthy_)),
      healthy_prototype_(healthy_),
      trial_prototype_(healthy_, trial_options()) {
  AQUA_REQUIRE(!config_.candidate_ecs.empty(), "need at least one candidate EC");
  AQUA_REQUIRE(config_.max_leaks >= 1, "max leaks must be positive");
}

EnumerationOutcome EnumerationLocalizer::localize(std::span<const double> observed_deltas,
                                                  std::size_t before_period,
                                                  std::size_t after_period) const {
  AQUA_REQUIRE(observed_deltas.size() == sensors_.size(),
               "observed deltas must match the sensor set");
  // A NaN would break the strict weak ordering the screening sort needs
  // and poison every residual comparison.
  AQUA_REQUIRE(std::all_of(observed_deltas.begin(), observed_deltas.end(),
                           [](double d) { return std::isfinite(d); }),
               "observed deltas must be finite");
  const auto start = std::chrono::steady_clock::now();

  EnumerationOutcome outcome;
  outcome.predicted.assign(labels_.num_labels(), 0);

  // Shared healthy "before" state, computed once, on a clone: solving
  // mutates a solver's workspace, and the prototypes stay read-only.
  const hydraulics::GgaSolver healthy_solver(healthy_, healthy_prototype_);
  const auto before_state =
      healthy_solver.solve(demands_of(healthy_, before_period), fixed_heads_);
  ++outcome.hydraulic_solves;

  const auto after_demands = demands_of(healthy_, after_period);

  // Optional screening pass: one linearized probe predicts each label's
  // sensor signature (the first-order response of every sensor to a unit
  // leak outflow at that node), and only the top_k labels whose signatures
  // best align with the observed deltas survive into the greedy rounds.
  // The probe costs a single factorization plus one blocked multi-RHS
  // solve for ALL labels — against O(labels) nonlinear solves per round.
  std::vector<char> admitted(labels_.num_labels(), 1);
  outcome.screened_labels = labels_.num_labels();
  if (config_.screen_top_k > 0 && config_.screen_top_k < labels_.num_labels()) {
    std::vector<hydraulics::NodeId> probes(labels_.num_labels());
    for (std::size_t label = 0; label < labels_.num_labels(); ++label) {
      probes[label] = labels_.node_of(label);
    }
    std::vector<double> head_response, flow_response;
    healthy_solver.probe_outflow_response(before_state, probes, head_response, &flow_response);

    const std::size_t n = healthy_.num_nodes();
    const std::size_t m = healthy_.num_links();
    double observed_norm = 0.0;
    for (double d : observed_deltas) observed_norm += d * d;
    observed_norm = std::sqrt(observed_norm);

    std::vector<std::pair<double, std::size_t>> scored(labels_.num_labels());
    for (std::size_t label = 0; label < labels_.num_labels(); ++label) {
      const double* dh = head_response.data() + label * n;
      const double* dq = flow_response.data() + label * m;
      double dot = 0.0, sig_norm = 0.0;
      for (std::size_t i = 0; i < sensors_.size(); ++i) {
        const auto& sensor = sensors_.sensors[i];
        // Pressure delta == head delta (elevation cancels).
        const double sig = sensor.kind == sensing::SensorKind::kPressure ? dh[sensor.index]
                                                                         : dq[sensor.index];
        dot += sig * observed_deltas[i];
        sig_norm += sig * sig;
      }
      sig_norm = std::sqrt(sig_norm);
      const double denom = sig_norm * observed_norm;
      scored[label] = {denom > 0.0 ? dot / denom : -2.0, label};
    }
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(config_.screen_top_k),
                      scored.end(), [](const auto& a, const auto& b) { return a.first > b.first; });
    admitted.assign(labels_.num_labels(), 0);
    for (std::size_t k = 0; k < config_.screen_top_k; ++k) admitted[scored[k].second] = 1;
    outcome.screened_labels = config_.screen_top_k;
  }

  // Evaluates one hypothesis on a caller-owned trial context.
  auto eval_hypothesis = [&](TrialContext& context,
                             const std::vector<std::pair<std::size_t, double>>& leaks) {
    context.network.clear_emitters();
    for (const auto& [label, ec] : leaks) {
      context.network.set_emitter(labels_.node_of(label), ec);
    }
    const auto after_state = context.solver.solve(after_demands, fixed_heads_, &before_state);
    if (!after_state.converged) return std::numeric_limits<double>::infinity();
    double ss = 0.0;
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
      const auto& sensor = sensors_.sensors[i];
      const double delta = sensor.kind == sensing::SensorKind::kPressure
                               ? after_state.pressure[sensor.index] -
                                     before_state.pressure[sensor.index]
                               : after_state.flow[sensor.index] - before_state.flow[sensor.index];
      const double d = delta - observed_deltas[i];
      ss += d * d;
    }
    return std::sqrt(ss);
  };

  // Each greedy round scores every remaining (node, EC) extension of the
  // current hypothesis; the trials are independent hydraulic solves, so
  // they fan out over the global thread pool with one trial context per
  // worker (GgaSolver instances are not shareable across threads). The
  // contexts are built once here and reused by every round. On a pool
  // worker parallel_for runs inline, so one context serves all trials. A
  // deque, because it never relocates its elements.
  auto& pool = ThreadPool::global();
  const std::size_t workers =
      pool.on_worker_thread() ? 1 : std::max<std::size_t>(1, pool.size());
  std::deque<TrialContext> contexts;
  for (std::size_t w = 0; w < workers; ++w) contexts.emplace_back(healthy_, trial_prototype_);

  std::vector<std::pair<std::size_t, double>> hypothesis;
  double current_residual = eval_hypothesis(contexts.front(), hypothesis);
  ++outcome.hydraulic_solves;

  for (std::size_t round = 0; round < config_.max_leaks; ++round) {
    std::vector<std::pair<std::size_t, double>> trials;  // (label, ec)
    trials.reserve(labels_.num_labels() * config_.candidate_ecs.size());
    for (std::size_t label = 0; label < labels_.num_labels(); ++label) {
      if (outcome.predicted[label] != 0 || admitted[label] == 0) continue;
      for (double ec : config_.candidate_ecs) trials.emplace_back(label, ec);
    }
    if (trials.empty()) break;

    std::vector<double> residuals(trials.size(), std::numeric_limits<double>::infinity());
    std::atomic<std::size_t> solves{0};
    const std::size_t stripes = std::min(contexts.size(), trials.size());
    pool.parallel_for(stripes, [&](std::size_t w) {
      std::size_t local_solves = 0;
      auto trial_hypothesis = hypothesis;
      trial_hypothesis.emplace_back(0, 0.0);
      for (std::size_t t = w; t < trials.size(); t += stripes) {
        trial_hypothesis.back() = trials[t];
        residuals[t] = eval_hypothesis(contexts[w], trial_hypothesis);
        ++local_solves;
      }
      solves.fetch_add(local_solves, std::memory_order_relaxed);
    });
    outcome.hydraulic_solves += solves.load();

    double best_residual = current_residual;
    std::pair<std::size_t, double> best_leak{0, 0.0};
    bool found = false;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      if (residuals[t] < best_residual) {
        best_residual = residuals[t];
        best_leak = trials[t];
        found = true;
      }
    }
    if (!found) break;
    const double improvement =
        current_residual > 0.0 ? (current_residual - best_residual) / current_residual : 0.0;
    if (improvement < config_.min_relative_improvement) break;
    hypothesis.push_back(best_leak);
    outcome.predicted[best_leak.first] = 1;
    current_residual = best_residual;
  }

  outcome.residual = current_residual;
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

}  // namespace aqua::core
