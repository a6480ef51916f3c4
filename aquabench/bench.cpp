#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/inference_engine.hpp"
#include "hydraulics/simulation.hpp"
#include "sensing/placement.hpp"

namespace aquabench {

double now_seconds() { return aqua::telemetry::monotonic_seconds(); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return aqua::percentile(values, 50.0);
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  return aqua::percentile(values, q);
}

double fast_time(std::span<const double> values) { return quantile(values, kFastPercentile); }

double fast_rate(std::span<const double> values) {
  return quantile(values, 100.0 - kFastPercentile);
}

std::vector<double> quiet_times(const std::vector<std::vector<double>>& repeats) {
  std::vector<double> quiet;
  for (const auto& times : repeats) {
    if (!times.empty()) quiet.push_back(*std::min_element(times.begin(), times.end()));
  }
  return quiet;
}

MeanCi bootstrap_mean_ci(std::span<const double> values, std::uint64_t seed) {
  MeanCi ci;
  ci.samples = values.size();
  if (values.empty()) return ci;
  ci.mean = aqua::mean(values);
  constexpr int kResamples = 2000;
  aqua::Rng rng(seed);
  std::vector<double> means(kResamples);
  const auto n = static_cast<std::int64_t>(values.size());
  for (double& m : means) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      sum += values[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    }
    m = sum / static_cast<double>(n);
  }
  ci.lo = aqua::percentile(means, 2.5);
  ci.hi = aqua::percentile(means, 97.5);
  return ci;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e2e) {
  return {
      {"setup_s", e2e.setup_s, "s"},
      {"train_s", e2e.train_s, "s"},
      {"localize_p50_ms", e2e.localize_p50_ms, "ms"},
      {"localize_p99_ms", e2e.localize_p99_ms, "ms"},
      {"localize_per_s", e2e.localize_per_s, "1/s"},
      {"hamming", e2e.hamming, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

void add_engine_telemetry(Layers& layers, const aqua::telemetry::StageTimes& engine) {
  using Engine = aqua::core::InferenceEngine;
  layers.ml_predict_s += engine.seconds(Engine::kStageProfileEval);
  layers.ml_predict_rows += static_cast<double>(engine.count(Engine::kCounterSnapshots));
  layers.fusion_weather_s += engine.seconds(Engine::kStageWeather);
  layers.fusion_human_tuning_s += engine.seconds(Engine::kStageHumanTuning);
  layers.fusion_energy_s += engine.seconds(Engine::kStageEnergy);
  layers.fusion_labels_added += static_cast<double>(engine.count(Engine::kCounterLabelsAdded));
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> per_layer_metrics(const Layers& l, const Tracer& tracer) {
  return {
      {"networks.build_s", l.networks_build_s, "s"},
      {"hydraulics.simulate_s", l.hydraulics_simulate_s, "s"},
      {"hydraulics.linear_solves", ratio(l.hydraulics_linear_solves, l.trace_ops), "count"},
      {"hydraulics.steps", ratio(l.hydraulics_steps, l.trace_ops), "count"},
      {"hydraulics.solves_per_step", ratio(l.hydraulics_linear_solves, l.hydraulics_steps),
       "ratio"},
      {"hydraulics.replayed_frac", ratio(l.hydraulics_replayed, l.hydraulics_scenarios), "ratio"},
      {"enumeration.localize_s", l.enumeration_localize_s, "s"},
      {"enumeration.solves_per_event", ratio(l.enumeration_solves, l.enumeration_events),
       "count"},
      {"enumeration.solves_per_s", ratio(l.enumeration_solves, l.enumeration_localize_s), "1/s"},
      {"enumeration.screened_labels",
       ratio(l.enumeration_screened_labels, l.enumeration_events), "count"},
      {"sensing.place_s", l.sensing_place_s, "s"},
      {"sensing.build_dataset_s", l.sensing_build_dataset_s, "s"},
      {"sensing.rows", ratio(l.sensing_rows, l.trace_ops), "count"},
      {"ml.fit_s", l.ml_fit_s, "s"},
      {"ml.labels", l.ml_labels, "count"},
      {"ml.trees", l.ml_trees, "count"},
      {"ml.compile_s", l.ml_compile_s, "s"},
      {"ml.predict_s", l.ml_predict_s, "s"},
      {"ml.predict_rows_per_s", ratio(l.ml_predict_rows, l.ml_predict_s), "1/s"},
      {"fusion.weather_s", l.fusion_weather_s, "s"},
      {"fusion.human_tuning_s", l.fusion_human_tuning_s, "s"},
      {"fusion.energy_s", l.fusion_energy_s, "s"},
      {"fusion.labels_added", ratio(l.fusion_labels_added, l.fusion_snapshots), "count"},
      {"fusion.changed_frac", ratio(l.fusion_changed, l.fusion_snapshots), "ratio"},
      {"serving.queue_p50_ms", l.serving_queue_p50_ms, "ms"},
      {"serving.queue_p99_ms", l.serving_queue_p99_ms, "ms"},
      {"serving.infer_p50_ms", l.serving_infer_p50_ms, "ms"},
      {"serving.mean_batch", l.serving_mean_batch, "count"},
      {"serving.shed", l.serving_shed, "count"},
      {"serving.gen_late_p99_ms", l.serving_gen_late_p99_ms, "ms"},
      {"serving.max_rate_per_s", l.serving_max_rate_per_s, "1/s"},
      {"io.save_s", l.io_save_s, "s"},
      {"io.artifact_bytes", l.io_artifact_bytes, "bytes"},
      {"io.load_bundle_s", l.io_load_bundle_s, "s"},
      {"io.swaps", l.io_swaps, "count"},
      {"io.mmap_frac", ratio(l.io_mmap_loads, l.io_swaps), "ratio"},
      {"common.pool_threads", static_cast<double>(aqua::ThreadPool::global().size()), "count"},
      {"trace.overhead_frac", l.trace_overhead_frac, "ratio"},
      {"trace.region_s", l.trace_region_s, "s"},
      {"trace.ops", l.trace_ops, "count"},
      {"trace.layer_coverage", tracer.child_coverage(), "ratio"},
      {"accuracy.hamming_samples", static_cast<double>(l.hamming.samples), "count"},
      {"accuracy.hamming_ci95_lo", l.hamming.lo, "ratio"},
      {"accuracy.hamming_ci95_hi", l.hamming.hi, "ratio"},
      {"failed_frac", l.failed_frac, "ratio"},
  };
}

void finish_report(Report& report, const EndToEnd& e2e, Layers layers, const Tracer& tracer) {
  layers.failed_frac = ratio(static_cast<double>(report.failed),
                             static_cast<double>(report.attempted));
  report.correct = report.failed == 0 && report.attempted > 0;
  report.hamming = layers.hamming;
  report.end_to_end = end_to_end_metrics(e2e);
  report.per_layer = per_layer_metrics(layers, tracer);
}

aqua::sensing::SensorSet place_sensors(const aqua::hydraulics::Network& network, Tracer& tracer,
                                       std::uint64_t parent, Layers* layers) {
  const double start = now_seconds();
  const Span span(tracer, "sensing.place", parent);
  const auto day = [&] {
    const Span eps(tracer, "hydraulics.baseline_day", span.id());
    aqua::hydraulics::Simulation simulation(network, {});
    return simulation.run();
  }();
  auto sensors = aqua::sensing::place_sensors_kmedoids(
      network, day, aqua::sensing::sensors_for_percentage(network, kIotPercent), kPlacementSeed);
  if (layers != nullptr) layers->sensing_place_s += since(start);
  return sensors;
}

bool same_sensors(const aqua::sensing::SensorSet& a, const aqua::sensing::SensorSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.sensors[i].kind != b.sensors[i].kind || a.sensors[i].index != b.sensors[i].index) {
      return false;
    }
  }
  return true;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_result(const aqua::core::InferenceResult& a, const aqua::core::InferenceResult& b) {
  return a.beliefs.p_leak == b.beliefs.p_leak && a.predicted == b.predicted &&
         a.predicted_iot_only == b.predicted_iot_only &&
         a.weather_updates == b.weather_updates &&
         a.tuning.added_labels == b.tuning.added_labels &&
         a.energy_before == b.energy_before && a.energy_after == b.energy_after;
}

bool same_results(std::span<const aqua::core::InferenceResult> a,
                  std::span<const aqua::core::InferenceResult> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  const double start = now_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, request});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const double end = now_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

std::uint64_t Tracer::record(const char* name, double start, double end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, request});
  return spans_.size();
}

namespace {

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

}  // namespace

std::vector<std::pair<std::string, double>> Tracer::self_time_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size() + 1);
  for (const auto& span : spans_) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    self[layer_of(span.name)] +=
        (span.end - span.start) - covered(children[i + 1], span.start, span.end);
  }
  return {self.begin(), self.end()};
}

double Tracer::child_coverage() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size() + 1);
  for (const auto& span : spans_) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
  }
  double root_total = 0.0;
  double root_covered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.parent != 0) continue;
    root_total += span.end - span.start;
    root_covered += covered(children[i + 1], span.start, span.end);
  }
  return root_total > 0.0 ? root_covered / root_total : 0.0;
}

void Tracer::write(const std::string& path, const std::string& provenance_json) const {
  const auto self = self_time_by_layer();
  const double coverage = child_coverage();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(file, "{\"provenance\": %s,\n\"layer_coverage\": %.6f,\n\"self_time_s\": {",
               provenance_json.c_str(), coverage);
  for (std::size_t i = 0; i < self.size(); ++i) {
    std::fprintf(file, "%s\"%s\": %.9f", i ? ", " : "", self[i].first.c_str(), self[i].second);
  }
  std::fprintf(file, "},\n\"span_fields\": [\"id\", \"parent\", \"request\", \"name\", "
                     "\"start_s\", \"end_s\"],\n\"spans\": [");
  const std::lock_guard<std::mutex> lock(mutex_);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(file, "%s\n[%zu,%llu,%llu,\"%s\",%.9f,%.9f]", i ? "," : "", i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.start - origin,
                 s.end - origin);
  }
  std::fprintf(file, "\n]}\n");
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace aquabench
