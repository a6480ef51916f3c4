// Multi-district serving daemon: one process hosting N district shards,
// each with its own model, ingest queue, and telemetry, sharing the
// process-global ThreadPool for batched inference. `aquascale_cli serve`
// drives it end to end; aquabench's serve_mixed workload measures it.
//
// Architecture (DESIGN.md §13):
//
//   submit() threads ──► per-district bounded FIFO (admission control:
//                        shed-oldest on overflow, per-district counters)
//   worker threads   ──► round-robin over districts; at most one batch in
//                        flight per district (preserves per-district
//                        order); each batch pins the district's current
//                        ModelBundle and runs InferenceEngine::infer_batch
//                        (which fans out over ThreadPool::global())
//   publisher thread ──► loads a new artifact off the hot path
//                        (load_bundle → ProfileModel::load_file) and
//                        swap_model()s it in; RCU-style: readers pin the
//                        old bundle via shared_ptr, so in-flight batches
//                        finish on the old model bit-identically and no
//                        inference ever blocks on a load
//   export thread    ──► district_telemetry()/metrics() take consistent
//                        snapshots at any time
//
// Every public member is thread-safe unless noted otherwise.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.hpp"
#include "core/inference_engine.hpp"
#include "core/profile.hpp"

namespace aqua::serving {

/// An immutable, versioned (profile, engine) pair published to district
/// shards. The profile is held by shared_ptr so a bundle can be built
/// around an existing in-memory model (several districts of the same
/// network kind sharing one profile) or around a freshly loaded artifact.
/// Once constructed a bundle is never mutated; swapping is done by
/// publishing a new bundle, never by touching an old one.
class ModelBundle {
 public:
  ModelBundle(std::shared_ptr<const core::ProfileModel> profile, std::uint64_t version,
              core::InferenceEngineOptions engine_options = {});

  const core::ProfileModel& profile() const noexcept { return *profile_; }
  const core::InferenceEngine& engine() const noexcept { return engine_; }
  std::uint64_t version() const noexcept { return version_; }

  /// Compiled-forest statistics captured at construction. Tree ensembles
  /// compile to node records inside classifier fit/load_state, i.e. on the
  /// publisher path of a hot swap — by the time a bundle is published the
  /// compile cost is already paid, and this report (exported per district
  /// as forest.compile_seconds / forest.compiled_trees) is the proof.
  const ml::ForestCompileReport& forest_report() const noexcept { return forest_report_; }

 private:
  std::shared_ptr<const core::ProfileModel> profile_;
  std::uint64_t version_;
  core::InferenceEngine engine_;  // references *profile_; declared after it
  ml::ForestCompileReport forest_report_;
};

/// Loads an AQUAMODL artifact (ProfileModel::load_file) into a publishable
/// bundle. This is the off-hot-path half of a hot swap; hand the result to
/// ServingDaemon::swap_model. `used_mmap`, when non-null, is always set to
/// false: artifacts are read by the one buffered reader since the
/// memory-mapped one was retired (format v3 artifacts are 2–3 MB and
/// decoding dominates a load). The parameter stays so existing callers
/// keep building; aquabench's serve_mixed reports it as io.mmap_frac.
std::shared_ptr<const ModelBundle> load_bundle(const std::string& path, std::uint64_t version,
                                               core::InferenceEngineOptions engine_options = {},
                                               bool* used_mmap = nullptr);

struct DistrictConfig {
  std::string name;
  /// Initial model; must be non-null and trained.
  std::shared_ptr<const ModelBundle> model;
  /// Bounded ingest queue depth. When a submit() finds the queue full the
  /// *oldest* queued request is shed (freshest-data-wins: stale snapshots
  /// are the least valuable under overload) and the new one is admitted.
  std::size_t queue_capacity = 256;
  /// Largest batch a worker drains per dequeue; bounds per-request latency
  /// added by batching under load.
  std::size_t max_batch = 32;
};

/// Everything the daemon knows about one completed request. The
/// InferenceResult itself is passed alongside (by reference, valid only
/// for the duration of the sink call — copy it to keep it).
struct ResultEvent {
  std::size_t district = 0;
  std::uint64_t sequence = 0;       // per-district admission order
  std::uint64_t model_version = 0;  // bundle that served it
  double event_seconds = 0.0;       // caller timestamp echoed from submit
  double submit_seconds = 0.0;      // monotonic clock at admission
  double complete_seconds = 0.0;    // monotonic clock when the batch finished
  double queue_seconds = 0.0;       // time spent waiting in the ingest queue
  double infer_seconds = 0.0;       // this request's share of batch inference
  /// Empty when the request was served. Otherwise its batch failed (say,
  /// an exception from inference): this is the message, and the result
  /// passed alongside is empty.
  std::string error;
};

/// Called once per dequeued request, served or failed, in per-district
/// submission order, from a worker thread. Must be thread-safe when
/// num_workers > 1 (two districts' batches can complete concurrently).
/// Re-entrant submit() from inside a sink is allowed. A sink that throws
/// fails that request only: the daemon counts it and keeps serving.
using ResultSink = std::function<void(const ResultEvent&, const core::InferenceResult&)>;

/// Called when admission control sheds a request (from inside submit(), on
/// the submitting thread). Optional.
using ShedSink = std::function<void(std::size_t district, std::uint64_t sequence)>;

struct ServingDaemonOptions {
  /// Batch worker threads. Each drains whole batches, so workers are the
  /// cross-district parallelism; the within-batch parallelism comes from
  /// the engine fanning out over ThreadPool::global(). 0 = one worker per
  /// global-pool thread.
  std::size_t num_workers = 0;
  /// Start with consumption paused: submissions queue (and shed) but no
  /// batch runs until resume(). Tests use this to make admission-control
  /// behavior fully deterministic.
  bool paused = false;
};

/// The daemon. Construction starts the workers; destruction stops them
/// (in-flight batches finish, queued-but-unstarted requests are
/// abandoned — call drain() first for a graceful end).
class ServingDaemon {
 public:
  /// Per-district telemetry schema (see make_district_schema).
  enum Stage : std::size_t {
    kStageQueueWait = 0,  // submit → dequeue, per request
    kStageInfer,          // batch inference wall time
    kNumStages,
  };
  enum Counter : std::size_t {
    kCounterSubmitted = 0,
    kCounterServed,
    kCounterShed,
    kCounterBatches,
    kCounterSwaps,
    kCounterFailed,  // dequeued but not delivered: inference or the sink threw
    kNumCounters,
  };
  static telemetry::StageTimes make_district_schema();

  ServingDaemon(std::vector<DistrictConfig> districts, ServingDaemonOptions options,
                ResultSink sink, ShedSink shed_sink = {});
  ~ServingDaemon();

  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  std::size_t num_districts() const noexcept { return districts_.size(); }

  /// Admits a timestamped event into a district's queue and returns its
  /// per-district sequence number. `event_seconds` is an arbitrary caller
  /// timestamp (e.g. the scheduled arrival of an open-loop load test)
  /// echoed back in the ResultEvent. May shed the oldest queued request
  /// (never the new one); sheds are counted and reported to the ShedSink.
  /// Throws InvalidArgument, before queueing, for a request whose feature
  /// width differs from the district's profile; the other requests keep
  /// being served.
  std::uint64_t submit(std::size_t district, core::InferenceInputs inputs,
                       double event_seconds = 0.0);

  /// RCU-style hot swap: atomically publishes `bundle` as the district's
  /// model. Batches already in flight keep the bundle they pinned at
  /// dequeue time and finish on it bit-identically; requests dequeued
  /// after the swap see the new bundle. Never blocks on inference and
  /// never drops a request. Throws InvalidArgument for a bundle whose
  /// profile takes another feature width than the district's, so every
  /// admitted request stays valid for whichever bundle serves it.
  void swap_model(std::size_t district, std::shared_ptr<const ModelBundle> bundle);

  /// Starts batch consumption of a daemon constructed with
  /// ServingDaemonOptions::paused.
  void resume();

  /// Blocks until every queue is empty and no batch is in flight. Only
  /// meaningful while running (a paused daemon with queued work never
  /// drains); concurrent submitters can extend the wait.
  void drain();

  /// Per-district telemetry snapshot (daemon schema: queue/infer stages,
  /// admission counters).
  telemetry::StageTimes district_telemetry(std::size_t district) const;

  /// Flat metric pairs for every district, prefixed
  /// "district.<name>.<metric>", ready for bench_util::json_report.
  std::vector<std::pair<std::string, double>> metrics() const;

 private:
  struct PendingRequest {
    std::uint64_t sequence = 0;
    double event_seconds = 0.0;
    double submit_seconds = 0.0;
    core::InferenceInputs inputs;
  };

  /// One shard. The bundle is the RCU-published pointer (lock-free reads
  /// on the hot path); queue/in_flight/next_sequence are guarded by the
  /// daemon mutex; stats has its own internal lock.
  struct District {
    explicit District(DistrictConfig district_config)
        : config(std::move(district_config)),
          num_features(config.model->profile().num_features()),
          bundle(config.model),
          stats(make_district_schema()) {}

    DistrictConfig config;
    /// Feature width of every bundle this district serves (swap_model
    /// keeps it fixed), checked by submit().
    const std::size_t num_features;
    std::atomic<std::shared_ptr<const ModelBundle>> bundle;
    std::deque<PendingRequest> queue;
    bool in_flight = false;
    std::uint64_t next_sequence = 0;
    telemetry::Registry stats;
  };

  District& district_at(std::size_t district) const;
  /// Round-robin scan for a district with queued work and no batch in
  /// flight. Caller holds the mutex. Returns false when none is ready.
  bool next_ready_district(std::size_t* out);
  void worker_loop();
  /// Runs one batch and delivers every request to the sink. Never
  /// throws: a failing inference or sink counts the requests it hit as
  /// failed, so the worker goes on serving every district.
  void process_batch(std::size_t index, District& district, std::vector<PendingRequest> batch,
                     double dequeue_seconds);

  std::vector<std::unique_ptr<District>> districts_;
  ResultSink sink_;
  ShedSink shed_sink_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here for ready districts
  std::condition_variable idle_cv_;   // drain() waits here
  std::size_t cursor_ = 0;            // round-robin fairness across districts
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace aqua::serving
