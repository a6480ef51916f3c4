// The "calibrated hydraulic simulator" baseline from the paper's related
// work (Sec. I, refs [8-11]): localize leaks by enumerating candidate
// leaky nodes and re-simulating until the simulated sensor deltas best
// match the observed ones. Greedy forward selection over (node, EC)
// hypotheses; every hypothesis evaluation is a hydraulic solve, which is
// exactly why the paper calls this approach "computationally expensive or
// prohibitive" — the detection-time bench quantifies the gap against
// Phase II profile inference. For that gap to be the method's and not a
// handicapped baseline's, the solves run the way EPANET 2 runs them: the
// ordering and symbolic factorization are computed once per localizer and
// cloned per call, head-loss coefficients once per solver, and each Newton
// iteration only refills values.
#pragma once

#include <cstdint>
#include <vector>

#include "core/label_space.hpp"
#include "hydraulics/solver.hpp"
#include "ml/dataset.hpp"
#include "sensing/sensors.hpp"

namespace aqua::core {

struct EnumerationConfig {
  /// Candidate leak severities tried per node.
  std::vector<double> candidate_ecs = {0.002, 0.005};
  std::size_t max_leaks = 5;
  /// Stop when the best candidate improves the residual by less than this
  /// relative fraction.
  double min_relative_improvement = 0.05;
  /// When positive, prune the candidate set before the greedy search: one
  /// linearized probe (GgaSolver::probe_outflow_response — a single
  /// factorization with one RHS per label) predicts each label's sensor
  /// signature, and only the `screen_top_k` labels whose signatures best
  /// match the observed deltas (cosine similarity) enter the per-round
  /// hydraulic trials. Cuts full solves from O(labels) to O(top_k) per
  /// round. 0 disables screening.
  std::size_t screen_top_k = 0;
};

struct EnumerationOutcome {
  ml::Labels predicted;           // per-label leak mask
  double residual = 0.0;          // final ||simulated - observed||
  std::size_t hydraulic_solves = 0;
  /// Labels admitted to the greedy search (== num_labels when screening
  /// is off).
  std::size_t screened_labels = 0;
  double seconds = 0.0;
};

/// Thread-safe: localize() is const and may run concurrently on one
/// shared localizer. The constructor copies the network and builds the
/// solver prototypes (ordering, symbolic factorization, head-loss
/// coefficients) once; each localize() only clones them, so `network`
/// need not outlive the localizer. Not copyable or movable: the
/// prototypes are bound to the localizer's own network copy.
class EnumerationLocalizer {
 public:
  EnumerationLocalizer(const hydraulics::Network& network, sensing::SensorSet sensors,
                       EnumerationConfig config = {});
  EnumerationLocalizer(const EnumerationLocalizer&) = delete;
  EnumerationLocalizer& operator=(const EnumerationLocalizer&) = delete;

  /// `observed_deltas` are the sensor Δ-readings (after − before, same
  /// layout as the sensor set, no time feature; every value finite).
  /// `before_period` and `after_period` are the demand-pattern periods of
  /// e.t−1 and e.t+n.
  EnumerationOutcome localize(std::span<const double> observed_deltas,
                              std::size_t before_period, std::size_t after_period) const;

 private:
  LabelSpace labels_;
  sensing::SensorSet sensors_;
  EnumerationConfig config_;
  hydraulics::Network healthy_;  // the network with its emitters cleared
  std::vector<double> fixed_heads_;
  // Bound to healthy_ and never solved on: localize() clones them, so
  // concurrent calls only read them. Default options serve the healthy
  // solve and the probe; trials must not throw on divergence.
  hydraulics::GgaSolver healthy_prototype_;
  hydraulics::GgaSolver trial_prototype_;
};

}  // namespace aqua::core
