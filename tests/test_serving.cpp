// Serving-daemon contract tests (see DESIGN.md §13): hot model swap is
// RCU-style (in-flight batches finish bit-identically on the model they
// pinned at dequeue), mixed-district serving matches per-district
// sequential inference exactly, admission control sheds the oldest
// requests deterministically, and the per-district telemetry registry
// survives concurrent recording from ingest/swap/export threads. The
// concurrent tests spawn raw std::threads on purpose and are meaningful
// under TSan (-DAQUA_TSAN=ON; label "serving;concurrency").
#include "serving/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/aquascale.hpp"

namespace aqua::serving {
namespace {

using core::InferenceInputs;
using core::InferenceResult;
using core::ModelKind;
using core::ProfileModel;

// Same synthetic setup as test_concurrency: small but non-degenerate
// multi-label problems, fast enough to train several distinct models.
ml::MultiLabelDataset synthetic_dataset(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t samples = 80, features = 6, labels = 5;
  ml::MultiLabelDataset data;
  data.features = ml::Matrix(samples, features);
  data.labels.assign(samples, ml::Labels(labels, 0));
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t c = 0; c < features; ++c) data.features(i, c) = rng.normal();
    for (std::size_t v = 0; v < labels; ++v) {
      data.labels[i][v] = data.features(i, v % features) + 0.2 * rng.normal() > 0.0 ? 1 : 0;
    }
  }
  return data;
}

std::shared_ptr<const ProfileModel> make_profile(std::uint64_t seed,
                                                 ModelKind kind = ModelKind::kHybridRsl) {
  auto profile = std::make_shared<ProfileModel>();
  profile->kind = kind;
  profile->model = ml::MultiLabelModel(core::make_classifier_factory(kind));
  const auto data = synthetic_dataset(seed);
  profile->model.fit(data);
  // The synthetic feature columns stand for placeholder sensors; there is
  // no time feature.
  profile->sensors.sensors.resize(data.num_features());
  profile->include_time_feature = false;
  return profile;
}

/// Inputs exercising every fusion stage: features, a frozen mask, and a
/// human-report clique.
std::vector<InferenceInputs> make_inputs(std::size_t count, std::size_t num_features,
                                         std::size_t num_labels, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<InferenceInputs> inputs(count);
  for (auto& in : inputs) {
    for (std::size_t c = 0; c < num_features; ++c) in.features.push_back(rng.normal());
    in.frozen.assign(num_labels, 0);
    in.frozen[0] = 1;
    fusion::LabelClique clique;
    clique.labels = {1, 3};
    in.cliques.push_back(clique);
  }
  return inputs;
}

void expect_identical(const InferenceResult& got, const InferenceResult& want,
                      const std::string& where) {
  EXPECT_EQ(got.beliefs.p_leak, want.beliefs.p_leak) << where;
  EXPECT_EQ(got.predicted, want.predicted) << where;
  EXPECT_EQ(got.predicted_iot_only, want.predicted_iot_only) << where;
  EXPECT_EQ(got.weather_updates, want.weather_updates) << where;
  EXPECT_EQ(got.tuning.added_labels, want.tuning.added_labels) << where;
  EXPECT_EQ(got.energy_before, want.energy_before) << where;
  EXPECT_EQ(got.energy_after, want.energy_after) << where;
}

/// The model version metrics() exports for the district named `name`.
double model_version(const ServingDaemon& daemon, const std::string& name) {
  for (const auto& [key, value] : daemon.metrics()) {
    if (key == "district." + name + ".model_version") return value;
  }
  ADD_FAILURE() << "no model_version metric for district " << name;
  return -1.0;
}

/// Thread-safe sink collecting (district, sequence, version, result).
struct Collector {
  struct Entry {
    std::uint64_t sequence;
    std::uint64_t version;
    InferenceResult result;
  };
  std::mutex mutex;
  std::map<std::size_t, std::vector<Entry>> by_district;

  ResultSink sink() {
    return [this](const ResultEvent& event, const InferenceResult& result) {
      const std::lock_guard<std::mutex> lock(mutex);
      by_district[event.district].push_back({event.sequence, event.model_version, result});
    };
  }
};

TEST(ServingDaemon, MixedDistrictResultsMatchPerDistrictSequential) {
  // Three districts, three distinct models, two workers: interleaved
  // traffic through the daemon must reproduce each district's sequential
  // single-engine results exactly, in per-district submission order.
  const std::vector<std::uint64_t> seeds = {0xA1, 0xB2, 0xC3};
  std::vector<DistrictConfig> configs;
  std::vector<std::vector<InferenceInputs>> inputs;
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    auto profile = make_profile(seeds[d]);
    DistrictConfig config;
    config.name = "d" + std::to_string(d);
    config.model = std::make_shared<ModelBundle>(profile, /*version=*/d + 1);
    config.max_batch = 4;
    configs.push_back(std::move(config));
    inputs.push_back(make_inputs(21, 6, profile->model.num_labels(), 0x5000 + d));
  }

  Collector collector;
  ServingDaemonOptions options;
  options.num_workers = 2;
  ServingDaemon daemon(configs, options, collector.sink());

  // Interleave submissions across districts (round-robin by request).
  for (std::size_t i = 0; i < inputs[0].size(); ++i) {
    for (std::size_t d = 0; d < configs.size(); ++d) {
      daemon.submit(d, inputs[d][i]);
    }
  }
  daemon.drain();

  for (std::size_t d = 0; d < configs.size(); ++d) {
    const auto& entries = collector.by_district[d];
    ASSERT_EQ(entries.size(), inputs[d].size()) << "district " << d;
    const core::InferenceEngine reference(configs[d].model->profile());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      // Per-district FIFO: sequences arrive in submission order.
      EXPECT_EQ(entries[i].sequence, i) << "district " << d;
      EXPECT_EQ(entries[i].version, d + 1);
      expect_identical(entries[i].result, reference.infer(inputs[d][i]),
                       "district " + std::to_string(d) + " request " + std::to_string(i));
    }
    const auto times = daemon.district_telemetry(d);
    EXPECT_EQ(times.count(ServingDaemon::kCounterServed), inputs[d].size());
    EXPECT_EQ(times.count(ServingDaemon::kCounterShed), 0u);
  }
}

TEST(ServingDaemon, ThrowingSinkFailsOnlyItsRequestAndEveryDistrictKeepsServing) {
  // The sink throws on one request of district 1. The daemon must count
  // that request as failed and go on delivering every other request of
  // every district, in order and bit-identical to sequential inference.
  const std::vector<std::uint64_t> seeds = {0xD1, 0xE2, 0xF3};
  std::vector<DistrictConfig> configs;
  std::vector<std::vector<InferenceInputs>> inputs;
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    auto profile = make_profile(seeds[d]);
    DistrictConfig config;
    config.name = "d" + std::to_string(d);
    config.model = std::make_shared<ModelBundle>(profile, d + 1);
    config.max_batch = 4;
    configs.push_back(std::move(config));
    inputs.push_back(make_inputs(21, 6, profile->model.num_labels(), 0x6000 + d));
  }

  constexpr std::size_t kBadDistrict = 1;
  constexpr std::uint64_t kBadSequence = 5;
  Collector collector;
  ResultSink collect = collector.sink();
  ServingDaemonOptions options;
  options.num_workers = 2;
  ServingDaemon daemon(configs, options,
                       [&](const ResultEvent& event, const InferenceResult& result) {
                         EXPECT_TRUE(event.error.empty()) << event.error;
                         if (event.district == kBadDistrict && event.sequence == kBadSequence) {
                           throw std::runtime_error("sink rejects this request");
                         }
                         collect(event, result);
                       });
  for (std::size_t i = 0; i < inputs[0].size(); ++i) {
    for (std::size_t d = 0; d < configs.size(); ++d) daemon.submit(d, inputs[d][i]);
  }
  daemon.drain();

  for (std::size_t d = 0; d < configs.size(); ++d) {
    SCOPED_TRACE("district " + std::to_string(d));
    const auto& entries = collector.by_district[d];
    const bool bad = d == kBadDistrict;
    ASSERT_EQ(entries.size(), inputs[d].size() - (bad ? 1 : 0));
    const core::InferenceEngine reference(configs[d].model->profile());
    std::size_t i = 0;
    for (const auto& entry : entries) {
      if (bad && i == kBadSequence) ++i;
      EXPECT_EQ(entry.sequence, i);
      expect_identical(entry.result, reference.infer(inputs[d][i]),
                       "request " + std::to_string(i));
      ++i;
    }
    const auto times = daemon.district_telemetry(d);
    EXPECT_EQ(times.count(ServingDaemon::kCounterFailed), bad ? 1u : 0u);
    EXPECT_EQ(times.count(ServingDaemon::kCounterServed), entries.size());
  }
  std::map<std::string, double> exported;
  for (const auto& [key, value] : daemon.metrics()) exported[key] = value;
  EXPECT_EQ(exported.at("district.d1.counter.failed"), 1.0);
  EXPECT_EQ(exported.at("district.d0.counter.failed"), 0.0);
}

TEST(ServingDaemon, ThrowingBatchFailsItsRequestsAndOtherDistrictsKeepServing) {
  // An in-memory profile whose sensors section is wider than its LogisticR
  // heads were fitted on passes the daemon's width check, but every batch
  // then throws inside inference. The sink hears of each of those
  // requests, in order, as an error with an empty result; the healthy
  // district on the same workers is served in full.
  auto healthy = make_profile(0x71, ModelKind::kLogisticR);
  auto broken = std::make_shared<ProfileModel>();
  broken->kind = ModelKind::kLogisticR;
  broken->model = ml::MultiLabelModel(core::make_classifier_factory(broken->kind));
  broken->model.fit(synthetic_dataset(0x72));
  broken->sensors.sensors.resize(7);  // the heads standardize 6 features
  broken->include_time_feature = false;
  std::vector<DistrictConfig> configs(2);
  configs[0].name = "healthy";
  configs[0].model = std::make_shared<ModelBundle>(healthy, 1);
  configs[0].max_batch = 3;
  configs[1].name = "broken";
  configs[1].model = std::make_shared<ModelBundle>(broken, 1);
  configs[1].max_batch = 3;

  std::mutex mutex;
  std::vector<std::uint64_t> errors;
  Collector collector;
  ResultSink collect = collector.sink();
  ServingDaemonOptions options;
  options.num_workers = 2;
  ServingDaemon daemon(configs, options,
                       [&](const ResultEvent& event, const InferenceResult& result) {
                         if (event.error.empty()) {
                           collect(event, result);
                           return;
                         }
                         EXPECT_EQ(event.district, 1u);
                         EXPECT_TRUE(result.beliefs.p_leak.empty());
                         const std::lock_guard<std::mutex> lock(mutex);
                         errors.push_back(event.sequence);
                       });
  const auto good = make_inputs(10, 6, healthy->model.num_labels(), 0x73);
  const auto wide = make_inputs(10, 7, broken->model.num_labels(), 0x74);
  for (std::size_t i = 0; i < good.size(); ++i) {
    daemon.submit(0, good[i]);
    daemon.submit(1, wide[i]);
  }
  daemon.drain();

  ASSERT_EQ(errors.size(), wide.size());
  for (std::size_t i = 0; i < errors.size(); ++i) EXPECT_EQ(errors[i], i);
  const auto broken_times = daemon.district_telemetry(1);
  EXPECT_EQ(broken_times.count(ServingDaemon::kCounterFailed), wide.size());
  EXPECT_EQ(broken_times.count(ServingDaemon::kCounterServed), 0u);

  const auto& entries = collector.by_district[0];
  ASSERT_EQ(entries.size(), good.size());
  const core::InferenceEngine reference(*healthy);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, i);
    expect_identical(entries[i].result, reference.infer(good[i]), "request " + std::to_string(i));
  }
  EXPECT_EQ(daemon.district_telemetry(0).count(ServingDaemon::kCounterFailed), 0u);
}

TEST(ServingDaemon, ShedsOldestDeterministicallyUnderSeededOverload) {
  // A paused daemon makes admission control exactly reproducible: with
  // capacity 4 and 10 submissions, sequences 0..5 are shed oldest-first
  // and 6..9 survive to be served after resume.
  auto profile = make_profile(0xDD, ModelKind::kLogisticR);
  DistrictConfig config;
  config.name = "overloaded";
  config.model = std::make_shared<ModelBundle>(profile, 1);
  config.queue_capacity = 4;
  config.max_batch = 3;

  Collector collector;
  std::vector<std::uint64_t> shed_sequences;
  ServingDaemonOptions options;
  options.num_workers = 1;
  options.paused = true;
  ServingDaemon daemon({config}, options, collector.sink(),
                       [&](std::size_t district, std::uint64_t sequence) {
                         EXPECT_EQ(district, 0u);
                         shed_sequences.push_back(sequence);
                       });

  const auto inputs = make_inputs(10, 6, profile->model.num_labels(), 0x700);
  for (const auto& in : inputs) daemon.submit(0, in);

  EXPECT_EQ(shed_sequences, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  const auto paused_times = daemon.district_telemetry(0);
  EXPECT_EQ(paused_times.count(ServingDaemon::kCounterSubmitted), 10u);
  EXPECT_EQ(paused_times.count(ServingDaemon::kCounterShed), 6u);
  EXPECT_EQ(paused_times.count(ServingDaemon::kCounterServed), 0u);

  daemon.resume();
  daemon.drain();
  const auto& entries = collector.by_district[0];
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, 6 + i);  // survivors, still in order
  }
  const auto times = daemon.district_telemetry(0);
  EXPECT_EQ(times.count(ServingDaemon::kCounterServed), 4u);
  // submitted == served + shed once drained: nothing is silently lost.
  EXPECT_EQ(times.count(ServingDaemon::kCounterSubmitted),
            times.count(ServingDaemon::kCounterServed) +
                times.count(ServingDaemon::kCounterShed));
  EXPECT_EQ(times.calls(ServingDaemon::kStageQueueWait), 4u);
}

TEST(ServingDaemon, SwapBetweenBatchesIsDeterministicAtBatchGranularity) {
  // Deterministic swap placement: one worker, max_batch 4, eight queued
  // requests = exactly two batches. The sink triggers the swap on the
  // first result of batch one — after the batch pinned its bundle — so
  // batch one must complete on v1 and batch two must run on v2.
  auto profile_v1 = make_profile(0x11);
  auto profile_v2 = make_profile(0x22);
  auto bundle_v2 = std::make_shared<ModelBundle>(profile_v2, 2);

  DistrictConfig config;
  config.name = "swap";
  config.model = std::make_shared<ModelBundle>(profile_v1, 1);
  config.queue_capacity = 64;
  config.max_batch = 4;

  ServingDaemon* daemon_ptr = nullptr;
  Collector collector;
  auto inner = collector.sink();
  ResultSink sink = [&](const ResultEvent& event, const InferenceResult& result) {
    if (event.sequence == 0) daemon_ptr->swap_model(0, bundle_v2);
    inner(event, result);
  };

  ServingDaemonOptions options;
  options.num_workers = 1;
  options.paused = true;
  ServingDaemon daemon({config}, options, sink);
  daemon_ptr = &daemon;

  const auto inputs = make_inputs(8, 6, profile_v1->model.num_labels(), 0x900);
  for (const auto& in : inputs) daemon.submit(0, in);
  daemon.resume();
  daemon.drain();

  const core::InferenceEngine engine_v1(*profile_v1);
  const core::InferenceEngine engine_v2(*profile_v2);
  const auto& entries = collector.by_district[0];
  ASSERT_EQ(entries.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const bool first_batch = i < 4;
    EXPECT_EQ(entries[i].version, first_batch ? 1u : 2u) << "request " << i;
    expect_identical(entries[i].result,
                     (first_batch ? engine_v1 : engine_v2).infer(inputs[i]),
                     "request " + std::to_string(i));
  }
  EXPECT_EQ(daemon.district_telemetry(0).count(ServingDaemon::kCounterSwaps), 1u);
  EXPECT_EQ(model_version(daemon, "swap"), 2.0);
}

TEST(ServingDaemon, HotSwapUnderConcurrentLoadNeverTearsOrDrops) {
  // The RCU stress: submitters and a publisher hammer one district while
  // workers drain it. Every result must be bit-identical to the sequential
  // output of the model version it reports — a batch that observed a swap
  // mid-flight would mismatch its pinned version. Zero requests may be
  // dropped (capacity exceeds the offered load).
  auto profile_v1 = make_profile(0x31, ModelKind::kLogisticR);
  auto profile_v2 = make_profile(0x32, ModelKind::kLogisticR);

  DistrictConfig config;
  config.name = "hot";
  config.model = std::make_shared<ModelBundle>(profile_v1, 1);
  config.queue_capacity = 4096;
  config.max_batch = 8;

  const auto inputs = make_inputs(24, 6, profile_v1->model.num_labels(), 0xABC);
  const core::InferenceEngine engine_v1(*profile_v1);
  const core::InferenceEngine engine_v2(*profile_v2);
  // Precompute both sequential references for every distinct input.
  std::vector<InferenceResult> want_v1, want_v2;
  for (const auto& in : inputs) {
    want_v1.push_back(engine_v1.infer(in));
    want_v2.push_back(engine_v2.infer(in));
  }

  // The sink checks identity on the worker thread; index via sequence.
  constexpr std::size_t kPerThread = 60;
  constexpr std::size_t kSubmitters = 3;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> served{0};
  ResultSink sink = [&](const ResultEvent& event, const InferenceResult& result) {
    const auto& want =
        event.model_version == 1 ? want_v1[event.sequence % inputs.size()]
                                 : want_v2[event.sequence % inputs.size()];
    const bool same = result.beliefs.p_leak == want.beliefs.p_leak &&
                      result.predicted == want.predicted &&
                      result.energy_after == want.energy_after;
    if (!same) mismatches.fetch_add(1);
    served.fetch_add(1);
  };

  ServingDaemonOptions options;
  options.num_workers = 2;
  ServingDaemon daemon({config}, options, sink);

  // Submission order must match sequence order for the sink's indexing:
  // serialize sequence assignment by submitting from one thread per
  // modulus stride — here simpler: submitters share a global ticket.
  std::atomic<std::size_t> ticket{0};
  std::vector<std::thread> submitters;
  std::mutex submit_mutex;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Sequence numbers are assigned inside submit() under the daemon
        // lock; serialize ticket+submit so sequence k always carries
        // inputs[k % size].
        const std::lock_guard<std::mutex> lock(submit_mutex);
        const std::size_t k = ticket.fetch_add(1);
        daemon.submit(0, inputs[k % inputs.size()]);
      }
    });
  }
  std::thread publisher([&] {
    for (std::uint64_t swap = 0; swap < 40; ++swap) {
      const bool to_v2 = swap % 2 == 0;
      daemon.swap_model(0, std::make_shared<ModelBundle>(to_v2 ? profile_v2 : profile_v1,
                                                         to_v2 ? 2 : 1));
      std::this_thread::yield();
    }
  });
  for (auto& thread : submitters) thread.join();
  publisher.join();
  daemon.drain();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(served.load(), kSubmitters * kPerThread);
  const auto times = daemon.district_telemetry(0);
  EXPECT_EQ(times.count(ServingDaemon::kCounterServed), kSubmitters * kPerThread);
  EXPECT_EQ(times.count(ServingDaemon::kCounterShed), 0u);
  EXPECT_EQ(times.count(ServingDaemon::kCounterSwaps), 40u);
}

TEST(ServingDaemon, BundleLoadedFromArtifactServesIdenticallyToInMemoryModel) {
  auto profile = make_profile(0x77);
  const std::string path = ::testing::TempDir() + "aqua_serving_bundle.aquamodl";
  profile->save_file(path);

  bool used_mmap = true;
  const auto bundle = load_bundle(path, /*version=*/9, {}, &used_mmap);
  EXPECT_FALSE(used_mmap);  // one buffered reader; the flag is always false
  EXPECT_EQ(bundle->version(), 9u);

  DistrictConfig config;
  config.name = "loaded";
  config.model = bundle;
  Collector collector;
  ServingDaemon daemon({config}, {}, collector.sink());

  const auto inputs = make_inputs(12, 6, profile->model.num_labels(), 0x3333);
  for (const auto& in : inputs) daemon.submit(0, in);
  daemon.drain();

  const core::InferenceEngine reference(*profile);
  const auto& entries = collector.by_district[0];
  ASSERT_EQ(entries.size(), inputs.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    expect_identical(entries[i].result, reference.infer(inputs[i]),
                     "loaded request " + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST(ServingDaemon, MetricsExportCoversEveryDistrictWithPrefixes) {
  // alpha holds a tree-backed hybrid model (compiled forest stats must be
  // nonzero); beta holds a treeless linear model (keys still exported,
  // zeroed — the transparent pointer-walk fallback has nothing compiled).
  auto hybrid_profile = make_profile(0x55);
  auto linear_profile = make_profile(0x55, ModelKind::kLinearR);
  std::vector<DistrictConfig> configs(2);
  configs[0].name = "alpha";
  configs[0].model = std::make_shared<ModelBundle>(hybrid_profile, 3);
  configs[1].name = "beta";
  configs[1].model = std::make_shared<ModelBundle>(linear_profile, 4);

  Collector collector;
  ServingDaemon daemon(configs, {}, collector.sink());
  const auto inputs = make_inputs(5, 6, linear_profile->model.num_labels(), 0x44);
  for (const auto& in : inputs) daemon.submit(1, in);
  daemon.drain();

  std::map<std::string, double> exported;
  for (const auto& [key, value] : daemon.metrics()) exported[key] = value;
  EXPECT_EQ(exported.at("district.alpha.counter.served"), 0.0);
  EXPECT_EQ(exported.at("district.beta.counter.served"), 5.0);
  EXPECT_EQ(exported.at("district.alpha.model_version"), 3.0);
  EXPECT_EQ(exported.at("district.beta.model_version"), 4.0);
  EXPECT_GT(exported.at("district.beta.stage.infer.seconds"), 0.0);
  EXPECT_EQ(exported.at("district.beta.stage.queue_wait.calls"), 5.0);
  EXPECT_GT(exported.at("district.alpha.forest.compiled_trees"), 0.0);
  EXPECT_GT(exported.at("district.alpha.forest.compile_seconds"), 0.0);
  EXPECT_EQ(exported.at("district.beta.forest.compiled_trees"), 0.0);
  EXPECT_EQ(exported.at("district.beta.forest.compile_seconds"), 0.0);
}

TEST(InferenceEngine, RejectsRequestsOfAnotherWidthForEveryKind) {
  // The compiled forests read feature indices up to the profile's width
  // and the scalers assert on it, so a short or long request must be
  // refused before any classifier sees it, for every kind, alone or
  // inside a batch.
  for (ModelKind kind : core::all_model_kinds()) {
    SCOPED_TRACE(core::model_kind_name(kind));
    const auto profile = make_profile(0x90, kind);
    ASSERT_EQ(profile->num_features(), 6u);
    const core::InferenceEngine engine(*profile);
    const InferenceInputs good = make_inputs(1, 6, profile->model.num_labels(), 0x91).front();
    for (const std::size_t width : {std::size_t{3}, std::size_t{7}}) {
      InferenceInputs bad = good;
      bad.features.resize(width, 0.5);
      EXPECT_THROW(engine.infer(bad), InvalidArgument) << width << " features";
      const std::vector<InferenceInputs> batch = {good, bad};
      EXPECT_THROW(engine.infer_batch(batch), InvalidArgument) << width << " features";
    }
    EXPECT_NO_THROW(engine.infer(good));
  }
}

TEST(ServingDaemon, RejectsRequestsOfAnotherWidthAndKeepsServing) {
  // A request of the wrong width throws to its submitter before it is
  // queued, so no worker ever runs it; the good requests around it are
  // served in order, bit-identical to the engine. A bundle of another
  // width cannot be swapped in under requests admitted for this one.
  for (ModelKind kind : {ModelKind::kLogisticR, ModelKind::kHybridRsl}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    auto profile = make_profile(0x81, kind);
    DistrictConfig config;
    config.name = "strict";
    config.model = std::make_shared<ModelBundle>(profile, 1);
    config.max_batch = 4;

    Collector collector;
    ServingDaemonOptions options;
    options.num_workers = 1;
    ServingDaemon daemon({config}, options, collector.sink());
    const auto inputs = make_inputs(9, 6, profile->model.num_labels(), 0x82);
    for (const auto& in : inputs) {
      InferenceInputs short_request = in;
      short_request.features.resize(3);
      EXPECT_THROW(daemon.submit(0, short_request), InvalidArgument);
      daemon.submit(0, in);
      InferenceInputs long_request = in;
      long_request.features.push_back(1.0);
      EXPECT_THROW(daemon.submit(0, long_request), InvalidArgument);
    }

    auto wider = std::make_shared<ProfileModel>();
    wider->kind = kind;
    wider->model = ml::MultiLabelModel(core::make_classifier_factory(kind));
    wider->model.fit(synthetic_dataset(0x83));
    wider->sensors.sensors.resize(6);  // 6 sensors + the time feature
    EXPECT_THROW(daemon.swap_model(0, std::make_shared<ModelBundle>(wider, 2)), InvalidArgument);
    EXPECT_EQ(model_version(daemon, "strict"), 1.0);

    daemon.drain();
    const auto& entries = collector.by_district[0];
    ASSERT_EQ(entries.size(), inputs.size());
    const core::InferenceEngine reference(*profile);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].sequence, i);  // refused requests take no sequence
      expect_identical(entries[i].result, reference.infer(inputs[i]),
                       "request " + std::to_string(i));
    }
    const auto times = daemon.district_telemetry(0);
    EXPECT_EQ(times.count(ServingDaemon::kCounterSubmitted), inputs.size());
    EXPECT_EQ(times.count(ServingDaemon::kCounterServed), inputs.size());
  }
}

TEST(TelemetryRegistry, ConcurrentRecordSnapshotAndResetStayConsistent) {
  // The documented Registry contract: merge/add/snapshot/metrics from any
  // number of threads, no lost increments, snapshots never torn. Final
  // totals must equal the arithmetic sum of everything recorded.
  telemetry::Registry registry(ServingDaemon::make_district_schema());
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kIters = 400;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      telemetry::StageTimes local = ServingDaemon::make_district_schema();
      for (std::size_t i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          // Direct low-rate recording (the ingest/swap-thread pattern).
          registry.add_count(ServingDaemon::kCounterSubmitted, 1);
          registry.add_seconds(ServingDaemon::kStageQueueWait, 0.5);
        } else {
          // Worker-local accumulate + merge (the batch-worker pattern).
          local.add_count(ServingDaemon::kCounterSubmitted, 1);
          local.add_seconds(ServingDaemon::kStageQueueWait, 0.5);
          if (i % 16 == 15) {
            registry.merge(local);
            local.reset();
          }
        }
        if (i % 64 == 0) {
          // Export thread: snapshots must be internally consistent —
          // seconds are only ever added 0.5 at a time alongside one call.
          const auto snap = registry.snapshot();
          const double seconds = snap.seconds(ServingDaemon::kStageQueueWait);
          const auto calls = snap.calls(ServingDaemon::kStageQueueWait);
          if (seconds != 0.5 * static_cast<double>(calls)) std::abort();
        }
      }
      if (t % 2 != 0) registry.merge(local);
    });
  }
  for (auto& thread : threads) thread.join();

  const auto total = registry.snapshot();
  EXPECT_EQ(total.count(ServingDaemon::kCounterSubmitted), kThreads * kIters);
  EXPECT_EQ(total.calls(ServingDaemon::kStageQueueWait), kThreads * kIters);
  EXPECT_EQ(total.seconds(ServingDaemon::kStageQueueWait), 0.5 * kThreads * kIters);
}

}  // namespace
}  // namespace aqua::serving
