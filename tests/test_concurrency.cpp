// Thread-safety of the const prediction paths (see the contract on
// ml::BinaryClassifier): concurrent predict_proba on one shared fitted
// model of every kind, concurrent infer/infer_batch on one shared
// InferenceEngine, and concurrent localize on one shared
// EnumerationLocalizer must produce exactly the serial results with no
// data races. These tests are meaningful under TSan (-DAQUA_TSAN=ON) — they
// spawn raw std::threads on purpose, rather than going through the global
// pool, so the sanitizer sees genuinely concurrent first-touch access to
// the shared fitted state.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/aquascale.hpp"
#include "core/enumeration.hpp"
#include "core/inference_engine.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "networks/builtin.hpp"
#include "sensing/sensors.hpp"

namespace aqua::core {
namespace {

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

class ConcurrentPredict : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ConcurrentPredict, SharedModelPredictsIdenticallyFromManyThreads) {
  const auto data = synthetic_dataset(0x4242);
  ml::MultiLabelModel model(make_classifier_factory(GetParam()));
  model.fit(data);

  // Serial reference over every training row.
  std::vector<std::vector<double>> expected(data.num_samples());
  for (std::size_t i = 0; i < data.num_samples(); ++i) {
    expected[i] = model.predict_proba(data.features.row(i));
  }

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].resize(data.num_samples());
      for (std::size_t i = 0; i < data.num_samples(); ++i) {
        got[t][i] = model.predict_proba(data.features.row(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t], expected) << model_kind_name(GetParam()) << " thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConcurrentPredict,
                         ::testing::Values(ModelKind::kLinearR, ModelKind::kLogisticR,
                                           ModelKind::kGradientBoosting,
                                           ModelKind::kRandomForest, ModelKind::kSvm,
                                           ModelKind::kHybridRsl));

TEST(ConcurrentEngine, SharedEngineInfersIdenticallyFromManyThreads) {
  const auto data = synthetic_dataset(0x1212);
  ProfileModel profile;
  profile.kind = ModelKind::kHybridRsl;
  profile.model = ml::MultiLabelModel(make_classifier_factory(profile.kind));
  profile.model.fit(data);

  Rng rng(0x9090);
  std::vector<InferenceInputs> batch(16);
  for (auto& inputs : batch) {
    for (std::size_t c = 0; c < data.num_features(); ++c) inputs.features.push_back(rng.normal());
    inputs.frozen.assign(profile.model.num_labels(), 0);
    inputs.frozen[0] = 1;
    fusion::LabelClique clique;
    clique.labels = {1, 2};
    inputs.cliques.push_back(clique);
  }

  const InferenceEngine engine(profile);
  const auto expected = engine.infer_batch(batch);

  constexpr std::size_t kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix batched and single-shot calls so the telemetry registry and
      // the fusion hot path both see real contention.
      const auto results = engine.infer_batch(batch);
      bool all_equal = results.size() == expected.size();
      for (std::size_t i = 0; all_equal && i < results.size(); ++i) {
        all_equal = results[i].beliefs.p_leak == expected[i].beliefs.p_leak &&
                    results[i].predicted == expected[i].predicted &&
                    results[i].energy_after == expected[i].energy_after;
      }
      const auto single = engine.infer(batch[t % batch.size()]);
      all_equal = all_equal &&
                  single.beliefs.p_leak == expected[t % batch.size()].beliefs.p_leak;
      ok[t] = all_equal ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;

  // Telemetry survived the concurrent merges with a consistent total.
  const auto times = engine.telemetry_snapshot();
  EXPECT_EQ(times.count(InferenceEngine::kCounterSnapshots),
            batch.size() + kThreads * (batch.size() + 1));
}

// --- Scenario-diversity engine under threads ------------------------------

std::vector<LeakScenario> mixed_variant_corpus(const hydraulics::Network& net,
                                               std::size_t count) {
  ScenarioConfig config;
  config.max_events = 2;
  config.seed = 0xabcd;
  config.faults = {
      make_fault_spec(FaultKind::kPumpOutage, 0.4),
      make_fault_spec(FaultKind::kValveClosure, 0.4),
      make_fault_spec(FaultKind::kLeakRamp, 0.4),
      make_fault_spec(FaultKind::kDemandSurge, 0.4),
      make_fault_spec(FaultKind::kTankDrawdown, 0.25),  // forces full-run fallback
      make_fault_spec(FaultKind::kSensorBias, 0.4),
  };
  ScenarioGenerator generator(net, config);
  return generator.generate(count);
}

bool batches_identical(const SnapshotBatch& a, const SnapshotBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots(i);
    const auto& sb = b.snapshots(i);
    if (sa.before_pressure != sb.before_pressure || sa.before_flow != sb.before_flow ||
        sa.after_pressure != sb.after_pressure || sa.after_flow != sb.after_flow ||
        sa.day_fraction != sb.day_fraction || sa.leak_slot != sb.leak_slot) {
      return false;
    }
  }
  return true;
}

TEST(VariantBatchConcurrency, ParallelMixedBatchMatchesSerialExactly) {
  // A variant-mixed corpus exercises BOTH pool paths at once — replayed
  // scenarios through the shared engine pool and tank-drawdown fallbacks
  // through full runs — and the parallel build must be order-deterministic:
  // bit-identical to the serial build regardless of worker interleaving.
  const auto net = networks::make_epa_net();
  const auto scenarios = mixed_variant_corpus(net, 24);
  std::size_t fallbacks = 0;
  for (const auto& s : scenarios) {
    if (!s.replay_compatible(900.0)) ++fallbacks;
  }
  ASSERT_GT(fallbacks, 0u) << "mix produced no full-run fallback scenarios";
  ASSERT_LT(fallbacks, scenarios.size()) << "mix produced no replayed scenarios";

  const SnapshotBatch parallel(net, scenarios, {1, 2}, {}, true, true);
  const SnapshotBatch serial(net, scenarios, {1, 2}, {}, false, true);
  EXPECT_EQ(parallel.stats().full_run, fallbacks);
  EXPECT_TRUE(batches_identical(parallel, serial));
}

TEST(VariantBatchConcurrency, ConcurrentBatchBuildsAndGeneratorsAreIndependent) {
  // Raw threads each run a private generator and build a private batch
  // over the shared network. Generators are value state (no hidden
  // globals) and batches only read the network, so every thread must
  // reproduce the reference bit for bit — under TSan this doubles as the
  // data-race check for the replay engine pool and the full-run fallback
  // running side by side.
  const auto net = networks::make_epa_net();
  const auto reference_scenarios = mixed_variant_corpus(net, 12);
  const SnapshotBatch reference(net, reference_scenarios, {1}, {}, true, true);

  constexpr std::size_t kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto scenarios = mixed_variant_corpus(net, 12);
      bool equal = scenarios.size() == reference_scenarios.size();
      for (std::size_t i = 0; equal && i < scenarios.size(); ++i) {
        equal = scenarios[i].leak_slot == reference_scenarios[i].leak_slot &&
                scenarios[i].truth == reference_scenarios[i].truth &&
                scenarios[i].variant_mask == reference_scenarios[i].variant_mask;
      }
      const SnapshotBatch batch(net, scenarios, {1}, {}, true, true);
      ok[t] = equal && batches_identical(batch, reference) ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

// --- Enumeration localizer under threads ----------------------------------

struct EnumerationEvent {
  std::vector<double> observed;  // sensor deltas, no time feature
  std::size_t before_period = 0;
  std::size_t after_period = 0;
};

/// Noisy EPA-NET leak events, observed one IoT slot after onset.
std::vector<EnumerationEvent> enumeration_events(const hydraulics::Network& net,
                                                 const sensing::SensorSet& sensors,
                                                 std::size_t count) {
  ScenarioConfig config;
  config.max_events = 2;
  config.seed = 0x5151;
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(count);
  const SnapshotBatch batch(net, scenarios, {1});
  const sensing::NoiseModel noise;
  Rng rng(0x6161);
  constexpr std::size_t kSlotSeconds = 900;
  std::vector<EnumerationEvent> events;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EnumerationEvent event;
    event.observed = batch.features(i, sensors, 0, noise, rng, false);
    event.before_period = (scenarios[i].leak_slot - 1) * kSlotSeconds / 3600;
    event.after_period = (scenarios[i].leak_slot + 1) * kSlotSeconds / 3600;
    events.push_back(std::move(event));
  }
  return events;
}

bool outcomes_identical(const EnumerationOutcome& a, const EnumerationOutcome& b) {
  return a.predicted == b.predicted &&
         std::bit_cast<std::uint64_t>(a.residual) == std::bit_cast<std::uint64_t>(b.residual) &&
         a.hydraulic_solves == b.hydraulic_solves && a.screened_labels == b.screened_labels;
}

/// Parameter: EnumerationConfig::screen_top_k (0 = screening off).
class ConcurrentEnumeration : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConcurrentEnumeration, PoolWorkerMainThreadAndRawThreadsAgree) {
  // One const localizer, three ways of calling it: from the main thread
  // (trials fan out over the global pool, one trial context per worker),
  // from a pool worker (the fan-out runs inline on one context) and from
  // raw threads at once (several fan-outs share the pool and all clone
  // the same solver prototypes). Every call must reproduce the same mask,
  // residual bits and solve count.
  const auto net = networks::make_epa_net();
  const auto sensors = sensing::full_observation(net);
  EnumerationConfig config;
  config.candidate_ecs = {0.004};
  config.max_leaks = 2;
  config.screen_top_k = GetParam();
  const EnumerationLocalizer localizer(net, sensors, config);
  const auto events = enumeration_events(net, sensors, 3);

  std::vector<EnumerationOutcome> from_main;
  for (const auto& e : events) {
    from_main.push_back(localizer.localize(e.observed, e.before_period, e.after_period));
  }
  std::size_t detected = 0;
  for (const auto& outcome : from_main) {
    for (const auto p : outcome.predicted) detected += p;
  }
  ASSERT_GT(detected, 0u) << "the events exercise no greedy round past the base residual";

  ThreadPool::global()
      .submit([&] {
        for (std::size_t i = 0; i < events.size(); ++i) {
          const auto& e = events[i];
          EXPECT_TRUE(outcomes_identical(
              localizer.localize(e.observed, e.before_period, e.after_period), from_main[i]))
              << "pool worker, event " << i;
        }
      })
      .get();

  constexpr std::size_t kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool equal = true;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[(i + t) % events.size()];
        equal = equal &&
                outcomes_identical(localizer.localize(e.observed, e.before_period, e.after_period),
                                   from_main[(i + t) % events.size()]);
      }
      ok[t] = equal ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(Screening, ConcurrentEnumeration, ::testing::Values(0, 12),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return info.param == 0 ? std::string("Off")
                                                  : "Top" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace aqua::core
