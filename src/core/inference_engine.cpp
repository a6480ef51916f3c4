#include "core/inference_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace aqua::core {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

telemetry::StageTimes InferenceEngine::make_telemetry_schema() {
  return telemetry::StageTimes({"profile_eval", "weather", "human_tuning", "energy"},
                               {"snapshots", "batches", "weather_updates", "labels_added"});
}

InferenceEngine::InferenceEngine(const ProfileModel& profile, InferenceEngineOptions options)
    : profile_(profile), options_(options), registry_(make_telemetry_schema()) {
  AQUA_REQUIRE(profile.model.fitted(), "profile model is not trained");
}

InferenceResult InferenceEngine::infer(const InferenceInputs& inputs) const {
  auto results = infer_batch(std::span<const InferenceInputs>(&inputs, 1));
  return std::move(results.front());
}

void InferenceEngine::fuse_snapshot(const InferenceInputs& inputs, InferenceResult& result,
                                    telemetry::StageTimes& times) const {
  result.predicted_iot_only = result.beliefs.predicted_set();

  // Weather expert (Algorithm 2 lines 6-13).
  if (!inputs.frozen.empty()) {
    const telemetry::ScopedStageTimer timer(times, kStageWeather);
    result.weather_updates =
        fusion::apply_weather_update(result.beliefs, inputs.frozen, inputs.p_leak_given_freeze);
    times.add_count(kCounterWeatherUpdates, result.weather_updates);
  }

  // Human event tuning (lines 14-26), bracketed by the energy bookkeeping.
  {
    const telemetry::ScopedStageTimer timer(times, kStageEnergy);
    result.energy_before =
        fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  }
  if (!inputs.cliques.empty()) {
    const telemetry::ScopedStageTimer timer(times, kStageHumanTuning);
    result.tuning =
        fusion::apply_human_tuning(result.beliefs, inputs.cliques, inputs.entropy_threshold);
    times.add_count(kCounterLabelsAdded, result.tuning.added_labels.size());
  }
  {
    const telemetry::ScopedStageTimer timer(times, kStageEnergy);
    result.energy_after =
        fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  }

  result.predicted = result.beliefs.predicted_set();
}

std::vector<InferenceResult> InferenceEngine::infer_batch(
    std::span<const InferenceInputs> batch) const {
  std::vector<InferenceResult> results(batch.size());
  if (batch.empty()) return results;

  // The classifiers index rows by the profile's feature schema; a row of
  // another width would be read past its end.
  const std::size_t dim = profile_.num_features();
  for (const auto& inputs : batch) {
    AQUA_REQUIRE(inputs.features.size() == dim,
                 "request has " + std::to_string(inputs.features.size()) +
                     " features; the profile takes " + std::to_string(dim));
  }

  telemetry::StageTimes batch_times = make_telemetry_schema();
  batch_times.add_count(kCounterSnapshots, batch.size());
  batch_times.add_count(kCounterBatches, 1);

  // Stage 1: stack feature rows and evaluate the profile model in one
  // batched call (one shared-input-map computation per snapshot instead of
  // one per label; see MultiLabelModel::predict_proba_batch_into).
  ml::Matrix features(batch.size(), dim);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::copy(batch[i].features.begin(), batch[i].features.end(), features.row(i).begin());
  }
  ml::Matrix proba;
  const auto profile_start = std::chrono::steady_clock::now();
  profile_.model.predict_proba_batch_into(features, proba, options_.parallel);
  const double profile_seconds = elapsed_seconds(profile_start);
  batch_times.add_seconds(kStageProfileEval, profile_seconds,
                          static_cast<std::uint64_t>(batch.size()));
  const double profile_share = profile_seconds / static_cast<double>(batch.size());

  // Stage 2: per-snapshot fusion, chunked across the pool. Workers record
  // into private StageTimes (no shared state in the hot path) and merge
  // once per chunk. Results land in their input slots, so ordering is
  // deterministic regardless of chunk completion order.
  auto& pool = ThreadPool::global();
  const std::size_t chunks =
      options_.parallel ? std::max<std::size_t>(1, std::min(pool.size(), batch.size())) : 1;
  const std::size_t per_chunk = (batch.size() + chunks - 1) / chunks;
  auto run_chunk = [&](std::size_t chunk) {
    telemetry::StageTimes local = make_telemetry_schema();
    const std::size_t begin = chunk * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, batch.size());
    for (std::size_t i = begin; i < end; ++i) {
      const auto fuse_start = std::chrono::steady_clock::now();
      const auto row = proba.row(i);
      results[i].beliefs.p_leak.assign(row.begin(), row.end());
      fuse_snapshot(batch[i], results[i], local);
      results[i].infer_seconds = elapsed_seconds(fuse_start) + profile_share;
    }
    registry_.merge(local);
  };
  if (chunks > 1) {
    pool.parallel_for(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
  registry_.merge(batch_times);

  return results;
}

}  // namespace aqua::core
