// Phase II (Sec. IV-B, Algorithm 2): online inference. Live IoT features
// go through the profile model (predict_proba / predict); frozen nodes get
// the Bayes weather update; human-input cliques apply higher-order-
// potential event tuning. The result is the final leak set S plus the
// diagnostics the paper reasons about (energy before/after, entropy).
// core::InferenceEngine (core/inference_engine.hpp) runs it, one snapshot
// or a batch at a time; this header holds its inputs and outputs.
#pragma once

#include "core/profile.hpp"
#include "fusion/beliefs.hpp"
#include "fusion/human.hpp"

namespace aqua::core {

struct InferenceInputs {
  std::vector<double> features;          // live x (same schema as training)
  std::vector<std::uint8_t> frozen;      // per label; empty = no weather source
  std::vector<fusion::LabelClique> cliques;  // empty = no human source
  double p_leak_given_freeze = 0.9;
  double entropy_threshold = 0.0;        // Γ; 0 = "always consider human effect"
};

struct InferenceResult {
  fusion::Beliefs beliefs;              // final per-label p_v(1)
  ml::Labels predicted;                 // final S as 0/1 mask
  ml::Labels predicted_iot_only;        // S before any fusion (diagnostic)
  std::size_t weather_updates = 0;
  fusion::HumanTuningResult tuning;
  double energy_before = 0.0;           // E[y] incl. potentials, pre-tuning
  double energy_after = 0.0;
  double infer_seconds = 0.0;
};

/// Maps geographic cliques (node ids) into label space, dropping non-
/// junction members; empty cliques are discarded.
std::vector<fusion::LabelClique> to_label_cliques(const std::vector<fusion::Clique>& cliques,
                                                  const LabelSpace& labels);

}  // namespace aqua::core
