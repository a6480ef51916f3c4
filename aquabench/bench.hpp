// Shared plumbing of the aquabench program: command-line arguments, the
// result every workload returns, the in-memory span tracer, and the small
// statistics the metrics need (medians, tail percentiles, bootstrap CIs).
//
// The benchmark measures each library layer from outside: spans wrap the
// calls the workloads make into the public functions of core, hydraulics,
// sensing, ml, fusion, serving and io, and counters come from the stats
// those modules already expose. Nothing here instruments src/.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "core/pipeline.hpp"
#include "hydraulics/network.hpp"
#include "sensing/sensors.hpp"

namespace aquabench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Provenance handed over by run.sh.
  std::string git_sha = "none";
  int git_dirty = -1;  // -1: not a git checkout
  std::string source_digest = "none";
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Seconds on the steady clock (same clock as telemetry::monotonic_seconds,
/// so daemon timestamps and bench timestamps compare directly).
double now_seconds();

/// Wall-clock helper: seconds since `start` on the steady clock.
inline double since(double start) { return now_seconds() - start; }

double median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 100].
double quantile(std::span<const double> values, double q);

// Every timing is taken many times, spread over the whole run (per event
// over repeated passes, per trial, per window), and the end-to-end metrics
// report its fast side: the kFastPercentile-th percentile of times, the
// (100 - kFastPercentile)-th of rates, and per event the fastest repeat.
// On a few cores of a shared host, slow periods (other tenants on the same
// physical cores) come and go and can cover most of a run, moving every
// sample they cover by up to half; a median follows them whenever they
// cover half of the run, the fast side only when they cover nearly all of
// it. A change to the program moves every sample, so the fast side moves
// with it.
inline constexpr double kFastPercentile = 10.0;
double fast_time(std::span<const double> values);
double fast_rate(std::span<const double> values);

/// Each item's fastest time over its repeats (items with no repeat are
/// skipped): per-event latency with the host's slow periods left out.
std::vector<double> quiet_times(const std::vector<std::vector<double>>& repeats);

/// Mean of `values` with a percentile-bootstrap 95 % confidence interval
/// (2000 resamples, seeded, so the interval is deterministic per input).
struct MeanCi {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t samples = 0;
};
MeanCi bootstrap_mean_ci(std::span<const double> values, std::uint64_t seed);

/// What one workload run hands back to main(). End-to-end metrics are
/// measured with tracing off; per-layer metrics come from the traced pass
/// (only filled when --trace 1).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  MeanCi hamming;
  /// Extra provenance fields (e.g. the daemon's worker count).
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// Peak resident set size of this process so far, in MiB (getrusage).
double peak_rss_mb();

/// The end-to-end metrics every workload reports (see main.cpp for what
/// each one means on each workload). peak_rss_mb is read when rendered.
struct EndToEnd {
  double setup_s = 0.0;
  double train_s = 0.0;
  double localize_p50_ms = 0.0;
  double localize_p99_ms = 0.0;
  double localize_per_s = 0.0;
  double hamming = 0.0;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e2e);

/// Per-layer figures of the traced pass. Fields are accumulated as totals
/// over the traced measurement (trace.region_s long, trace.ops operations:
/// trials, events or served requests). When rendered, seconds stay totals
/// and work counts become per operation (hydraulics and sensing per trial,
/// enumeration per event, fusion per snapshot), so a count repeats exactly
/// for a given seed. networks.build_s is per set-up. Layers a workload does
/// not touch stay 0, which is itself the check that the workload isolates
/// the layers it was designed to.
struct Layers {
  double networks_build_s = 0.0;
  double hydraulics_simulate_s = 0.0;
  double hydraulics_linear_solves = 0.0;
  double hydraulics_steps = 0.0;
  double hydraulics_scenarios = 0.0;
  double hydraulics_replayed = 0.0;
  double enumeration_localize_s = 0.0;
  double enumeration_events = 0.0;
  double enumeration_solves = 0.0;
  double enumeration_screened_labels = 0.0;  // summed over events
  double sensing_place_s = 0.0;
  double sensing_build_dataset_s = 0.0;
  double sensing_rows = 0.0;
  double ml_fit_s = 0.0;
  double ml_labels = 0.0;
  double ml_trees = 0.0;
  double ml_compile_s = 0.0;
  double ml_predict_s = 0.0;
  double ml_predict_rows = 0.0;
  double fusion_weather_s = 0.0;
  double fusion_human_tuning_s = 0.0;
  double fusion_energy_s = 0.0;
  double fusion_labels_added = 0.0;
  double fusion_snapshots = 0.0;
  double fusion_changed = 0.0;  // snapshots whose fused set differs from the profile's
  double serving_queue_p50_ms = 0.0;
  double serving_queue_p99_ms = 0.0;
  double serving_infer_p50_ms = 0.0;
  double serving_mean_batch = 0.0;
  double serving_shed = 0.0;
  double serving_gen_late_p99_ms = 0.0;
  double serving_max_rate_per_s = 0.0;
  double io_save_s = 0.0;
  double io_artifact_bytes = 0.0;
  double io_load_bundle_s = 0.0;
  double io_swaps = 0.0;
  double io_mmap_loads = 0.0;
  double trace_overhead_frac = 0.0;
  double trace_region_s = 0.0;
  double trace_ops = 0.0;
  MeanCi hamming;
  double failed_frac = 0.0;
};

/// Adds an InferenceEngine telemetry snapshot (profile_eval, weather,
/// human_tuning, energy stages and the labels_added counter) to `layers`.
void add_engine_telemetry(Layers& layers, const aqua::telemetry::StageTimes& engine);

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// is stored. Enabled, each span keeps its name, start, end, parent span
/// and request id; write() dumps them at exit together with a per-layer
/// self-time summary. A span's layer is its name up to the first '.'.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);
  void end(std::uint64_t id);
  /// Records a span whose endpoints were measured elsewhere (daemon
  /// timestamps). Returns its id (0 when disabled).
  std::uint64_t record(const char* name, double start, double end, std::uint64_t parent = 0,
                       std::uint64_t request = 0);

  /// Self time per layer over all recorded spans: a span's duration minus
  /// the part of it covered by its children.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;

  /// Share of the root spans' time that their child spans cover.
  double child_coverage() const;

  /// Writes every span plus the self-time summary as JSON to `path`.
  void write(const std::string& path, const std::string& provenance_json) const;

 private:
  struct SpanRecord {
    const char* name;
    double start;
    double end;
    std::uint64_t parent;
    std::uint64_t request;
  };
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // span id = index + 1
};

/// RAII span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Renders `layers` plus the tracer's span coverage as per-layer metrics.
std::vector<Metric> per_layer_metrics(const Layers& layers, const Tracer& tracer);

/// Fills the report's metrics and verdict: failed_frac from its counts,
/// `correct` when no operation failed.
void finish_report(Report& report, const EndToEnd& e2e, Layers layers, const Tracer& tracer);

/// Share of the |V|+|E| candidate locations that carry a sensor.
inline constexpr double kIotPercent = 50.0;

/// k-medoids seed of every placement. The sensor layout is a deployment
/// decision made once per network, not a workload input: every --seed sees
/// the same layout, so neither placement cost nor the sensor set a
/// localizer works with varies between seeds (the events do).
inline constexpr std::uint64_t kPlacementSeed = 42;

/// Sensor placement as Phase I does it: a healthy 24 h EPS for signatures
/// (span hydraulics.baseline_day), then k-medoids with kPlacementSeed over
/// |V|+|E| candidates for kIotPercent of them (span sensing.place, which
/// encloses both). Adds its time to layers->sensing_place_s when `layers`
/// is non-null.
aqua::sensing::SensorSet place_sensors(const aqua::hydraulics::Network& network, Tracer& tracer,
                                       std::uint64_t parent = 0, Layers* layers = nullptr);

bool same_sensors(const aqua::sensing::SensorSet& a, const aqua::sensing::SensorSet& b);

/// Distinct, reproducible sub-seed `tag` of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Bitwise equality of two Phase II results (beliefs, sets, fusion
/// diagnostics); the serving and artifact contracts promise exactly this.
bool same_result(const aqua::core::InferenceResult& a, const aqua::core::InferenceResult& b);
bool same_results(std::span<const aqua::core::InferenceResult> a,
                  std::span<const aqua::core::InferenceResult> b);

/// Set-ups per run behind setup_s: at least kSetupMinRepeats, and more
/// while they have taken less than kSetupMinSeconds in total.
inline constexpr std::size_t kSetupMinRepeats = 3;
inline constexpr std::size_t kSetupMaxRepeats = 25;
inline constexpr double kSetupMinSeconds = 1.0;

/// Runs `make` as above, keeps the last result and returns the median
/// set-up time in `*median_s` (set-up time is an end-to-end metric, and the
/// median of several keeps one slow set-up from deciding it).
template <class Make>
auto repeated_setup(double* median_s, Make make) {
  std::vector<double> times;
  double total = 0.0;
  decltype(make()) result{};
  while (times.size() < kSetupMinRepeats ||
         (total < kSetupMinSeconds && times.size() < kSetupMaxRepeats)) {
    result = {};  // release the previous set-up before timing the next
    const double start = now_seconds();
    result = make();
    times.push_back(since(start));
    total += times.back();
  }
  *median_s = median(times);
  return result;
}

// Workload entry points.
Report run_train_epa(const Args& args, Tracer& tracer);
Report run_serve_mixed(const Args& args, Tracer& tracer);
Report run_enumerate_epa(const Args& args, Tracer& tracer);

}  // namespace aquabench
