#include "serving/daemon.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace aqua::serving {

namespace {

std::shared_ptr<const core::ProfileModel> require_profile(
    std::shared_ptr<const core::ProfileModel> profile) {
  AQUA_REQUIRE(profile != nullptr, "model bundle needs a profile");
  return profile;
}

}  // namespace

ModelBundle::ModelBundle(std::shared_ptr<const core::ProfileModel> profile, std::uint64_t version,
                         core::InferenceEngineOptions engine_options)
    : profile_(require_profile(std::move(profile))),
      version_(version),
      engine_(*profile_, engine_options),
      forest_report_(engine_.forest_compile_report()) {
  // InferenceEngine's constructor rejects an untrained model.
}

std::shared_ptr<const ModelBundle> load_bundle(const std::string& path, std::uint64_t version,
                                               core::InferenceEngineOptions engine_options,
                                               bool* used_mmap) {
  if (used_mmap != nullptr) *used_mmap = false;
  auto profile = std::make_shared<const core::ProfileModel>(core::ProfileModel::load_file(path));
  return std::make_shared<const ModelBundle>(std::move(profile), version, engine_options);
}

telemetry::StageTimes ServingDaemon::make_district_schema() {
  return telemetry::StageTimes({"queue_wait", "infer"},
                               {"submitted", "served", "shed", "batches", "swaps", "failed"});
}

ServingDaemon::ServingDaemon(std::vector<DistrictConfig> districts, ServingDaemonOptions options,
                             ResultSink sink, ShedSink shed_sink)
    : sink_(std::move(sink)), shed_sink_(std::move(shed_sink)), paused_(options.paused) {
  AQUA_REQUIRE(!districts.empty(), "daemon needs at least one district");
  AQUA_REQUIRE(sink_ != nullptr, "daemon needs a result sink");
  districts_.reserve(districts.size());
  for (auto& config : districts) {
    AQUA_REQUIRE(config.model != nullptr, "district '" + config.name + "' has no initial model");
    AQUA_REQUIRE(config.queue_capacity > 0, "queue_capacity must be positive");
    AQUA_REQUIRE(config.max_batch > 0, "max_batch must be positive");
    districts_.push_back(std::make_unique<District>(std::move(config)));
  }

  std::size_t num_workers = options.num_workers;
  if (num_workers == 0) num_workers = std::max<std::size_t>(1, ThreadPool::global().size());
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServingDaemon::~ServingDaemon() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ServingDaemon::District& ServingDaemon::district_at(std::size_t district) const {
  AQUA_REQUIRE(district < districts_.size(), "district index out of range");
  return *districts_[district];
}

std::uint64_t ServingDaemon::submit(std::size_t district, core::InferenceInputs inputs,
                                    double event_seconds) {
  District& dist = district_at(district);
  // Checked here, not in the worker: a bad request throws to its caller
  // instead of failing the batch it would share with good ones.
  AQUA_REQUIRE(inputs.features.size() == dist.num_features,
               "request has " + std::to_string(inputs.features.size()) + " features; district '" +
                   dist.config.name + "' takes " + std::to_string(dist.num_features));
  PendingRequest request;
  request.event_seconds = event_seconds;
  request.submit_seconds = telemetry::monotonic_seconds();
  request.inputs = std::move(inputs);

  bool shed = false;
  std::uint64_t shed_sequence = 0;
  std::uint64_t sequence = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sequence = dist.next_sequence++;
    request.sequence = sequence;
    if (dist.queue.size() >= dist.config.queue_capacity) {
      shed = true;
      shed_sequence = dist.queue.front().sequence;
      dist.queue.pop_front();
    }
    dist.queue.push_back(std::move(request));
  }
  dist.stats.add_count(kCounterSubmitted, 1);
  if (shed) {
    dist.stats.add_count(kCounterShed, 1);
    if (shed_sink_) shed_sink_(district, shed_sequence);
  }
  work_cv_.notify_one();
  return sequence;
}

void ServingDaemon::swap_model(std::size_t district, std::shared_ptr<const ModelBundle> bundle) {
  AQUA_REQUIRE(bundle != nullptr, "cannot swap in a null model bundle");
  District& dist = district_at(district);
  AQUA_REQUIRE(bundle->profile().num_features() == dist.num_features,
               "bundle takes " + std::to_string(bundle->profile().num_features()) +
                   " features; district '" + dist.config.name + "' takes " +
                   std::to_string(dist.num_features));
  dist.bundle.store(std::move(bundle));  // RCU publish: readers pin via load()
  dist.stats.add_count(kCounterSwaps, 1);
}

void ServingDaemon::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void ServingDaemon::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return std::all_of(districts_.begin(), districts_.end(), [](const auto& dist) {
      return dist->queue.empty() && !dist->in_flight;
    });
  });
}

telemetry::StageTimes ServingDaemon::district_telemetry(std::size_t district) const {
  return district_at(district).stats.snapshot();
}

std::vector<std::pair<std::string, double>> ServingDaemon::metrics() const {
  std::vector<std::pair<std::string, double>> all;
  for (const auto& dist : districts_) {
    const std::string prefix = "district." + dist->config.name + ".";
    auto district_metrics = dist->stats.metrics(prefix);
    all.insert(all.end(), std::make_move_iterator(district_metrics.begin()),
               std::make_move_iterator(district_metrics.end()));
    const auto bundle = dist->bundle.load();
    all.emplace_back(prefix + "model_version", static_cast<double>(bundle->version()));
    const ml::ForestCompileReport& forest = bundle->forest_report();
    all.emplace_back(prefix + "forest.compile_seconds", forest.seconds);
    all.emplace_back(prefix + "forest.compiled_trees", static_cast<double>(forest.trees));
  }
  return all;
}

bool ServingDaemon::next_ready_district(std::size_t* out) {
  if (paused_) return false;
  const std::size_t n = districts_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t d = (cursor_ + step) % n;
    District& dist = *districts_[d];
    if (!dist.in_flight && !dist.queue.empty()) {
      cursor_ = (d + 1) % n;  // fairness: next scan starts past this shard
      *out = d;
      return true;
    }
  }
  return false;
}

void ServingDaemon::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    std::size_t index = 0;
    work_cv_.wait(lock, [&] { return stopping_ || next_ready_district(&index); });
    if (stopping_) return;

    District& dist = *districts_[index];
    const std::size_t take = std::min(dist.queue.size(), dist.config.max_batch);
    std::vector<PendingRequest> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(dist.queue.front()));
      dist.queue.pop_front();
    }
    dist.in_flight = true;  // per-district FIFO: one batch in flight at a time
    const double dequeue_seconds = telemetry::monotonic_seconds();
    lock.unlock();

    process_batch(index, dist, std::move(batch), dequeue_seconds);

    lock.lock();
    dist.in_flight = false;
    if (!dist.queue.empty()) work_cv_.notify_one();
    idle_cv_.notify_all();
  }
}

void ServingDaemon::process_batch(std::size_t index, District& district,
                                  std::vector<PendingRequest> batch, double dequeue_seconds) {
  // Pin the published bundle for the whole batch (the RCU read side). A
  // concurrent swap_model() replaces the district's pointer but cannot
  // reclaim this bundle until the shared_ptr drops, so the batch finishes
  // on the model it started with, bit-identically.
  const std::shared_ptr<const ModelBundle> bundle = district.bundle.load();

  std::vector<core::InferenceInputs> inputs;
  inputs.reserve(batch.size());
  for (auto& request : batch) inputs.push_back(std::move(request.inputs));

  const double infer_start = telemetry::monotonic_seconds();
  std::vector<core::InferenceResult> results;
  std::string batch_error;
  try {
    results = bundle->engine().infer_batch(inputs);
  } catch (const std::exception& error) {
    batch_error = std::string("inference failed: ") + error.what();
  } catch (...) {
    batch_error = "inference failed";
  }
  const double complete_seconds = telemetry::monotonic_seconds();
  const double infer_share =
      (complete_seconds - infer_start) / static_cast<double>(batch.size());
  const core::InferenceResult no_result;

  telemetry::StageTimes local = make_district_schema();
  local.add_seconds(kStageInfer, complete_seconds - infer_start,
                    static_cast<std::uint64_t>(batch.size()));
  local.add_count(kCounterBatches, 1);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PendingRequest& request = batch[i];
    const double queue_seconds = dequeue_seconds - request.submit_seconds;
    local.add_seconds(kStageQueueWait, queue_seconds);

    ResultEvent event;
    event.district = index;
    event.sequence = request.sequence;
    event.model_version = bundle->version();
    event.event_seconds = request.event_seconds;
    event.submit_seconds = request.submit_seconds;
    event.complete_seconds = complete_seconds;
    event.queue_seconds = queue_seconds;
    event.infer_seconds = infer_share;
    event.error = batch_error;
    bool delivered = batch_error.empty();
    try {
      sink_(event, delivered ? results[i] : no_result);
    } catch (...) {
      delivered = false;  // this request only; the rest still go out
    }
    local.add_count(delivered ? kCounterServed : kCounterFailed, 1);
  }
  district.stats.merge(local);
}

}  // namespace aqua::serving
