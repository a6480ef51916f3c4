// Batched Phase II serving layer. InferenceEngine runs Algorithm 2 over a
// batch of snapshots: the profile model evaluates every stacked feature row
// in one batched call (hoisting the per-label classifiers' shared input map
// — see MultiLabelModel::predict_proba_batch_into), then the fusion pass
// (weather Bayes update, human-input event tuning, energy bookkeeping) runs
// per snapshot across the global thread pool with per-worker telemetry.
// Results are bit-identical to running Algorithm 2 one snapshot at a time
// (per-row predict_proba, then the fusion stages) — batching only
// amortizes and hoists, it never reorders the arithmetic inside one
// snapshot — and come back in input order.
#pragma once

#include <span>

#include "common/telemetry.hpp"
#include "core/pipeline.hpp"
#include "core/profile.hpp"

namespace aqua::core {

struct InferenceEngineOptions {
  /// Spread the profile evaluation and the fusion pass across the global
  /// ThreadPool. Results are identical either way.
  bool parallel = true;
};

class InferenceEngine {
 public:
  /// Stage indices into the telemetry schema (see make_telemetry_schema).
  enum Stage : std::size_t {
    kStageProfileEval = 0,  // batched predict_proba over stacked rows
    kStageWeather,          // Bayes weather update (Alg. 2 lines 6-13)
    kStageHumanTuning,      // higher-order-potential tuning (lines 14-26)
    kStageEnergy,           // total_energy before/after tuning
    kNumStages,
  };
  enum Counter : std::size_t {
    kCounterSnapshots = 0,
    kCounterBatches,
    kCounterWeatherUpdates,
    kCounterLabelsAdded,
    kNumCounters,
  };

  /// The profile must outlive the engine and stay un-mutated while the
  /// engine is in use (the engine only ever calls const members of it).
  explicit InferenceEngine(const ProfileModel& profile, InferenceEngineOptions options = {});

  /// Single-snapshot convenience: infer_batch of one.
  InferenceResult infer(const InferenceInputs& inputs) const;

  /// Runs Algorithm 2 over every snapshot in the batch. result[i] always
  /// corresponds to batch[i] and is bit-identical to infer(batch[i]).
  /// Each result's infer_seconds is its own fusion time plus an
  /// equal share of the batched profile-evaluation time. Reentrant: safe
  /// to call concurrently from multiple threads on one engine.
  std::vector<InferenceResult> infer_batch(std::span<const InferenceInputs> batch) const;

  const ProfileModel& profile() const noexcept { return profile_; }

  /// Aggregate compiled-forest statistics for the served profile (zero
  /// report for tree-less kinds). Serving captures this once per bundle
  /// load and exports it as forest.* metrics per district.
  ml::ForestCompileReport forest_compile_report() const {
    return profile_.model.forest_compile_report();
  }

  /// Consistent snapshot of the per-stage telemetry accumulated by every
  /// infer/infer_batch call since construction (or the last reset).
  telemetry::StageTimes telemetry_snapshot() const { return registry_.snapshot(); }
  void reset_telemetry() const { registry_.reset(); }

  /// The engine's telemetry schema: stage/counter names positionally
  /// matching the Stage and Counter enums.
  static telemetry::StageTimes make_telemetry_schema();

 private:
  /// Fusion stages for one snapshot, beliefs already seeded from the
  /// profile row. Stage times and counters go to `times` (worker-local;
  /// merged into the registry per chunk, not per snapshot).
  void fuse_snapshot(const InferenceInputs& inputs, InferenceResult& result,
                     telemetry::StageTimes& times) const;

  const ProfileModel& profile_;
  InferenceEngineOptions options_;
  mutable telemetry::Registry registry_;
};

}  // namespace aqua::core
