// train_epa: Phase I on EPA-NET along the public path of
// core::train_profile, one stage at a time so each layer is timed from
// outside: k-medoids sensor placement on a healthy day -> a seeded leak
// corpus with a fault-variant mix (so checkpoint replay and the full-run
// fallback both run) through SnapshotBatch -> SnapshotBatch::build_dataset
// -> HybridRSL MultiLabelModel::fit -> ProfileModel::save_file. Each
// trial's profile then localizes a held-out set, once batched
// (InferenceEngine::infer_batch) and once event by event
// (InferenceEngine::infer on a serial engine: one event is too little work
// to fan out over the pool, and timing the pool's wake-ups would measure
// the host's scheduler rather than the profile).
//
// The ml fit dominates; replayed hydraulics are a few percent; there is no
// daemon and no enumeration. A fitter or binning change shows here only.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "common/stats.hpp"
#include "core/inference_engine.hpp"
#include "core/profile.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "ml/metrics.hpp"
#include "networks/builtin.hpp"

namespace aquabench {
namespace {

using namespace aqua;
using namespace aqua::core;

constexpr std::size_t kTrainScenarios = 600;
constexpr std::size_t kTestScenarios = 1024;
constexpr std::size_t kMinTrials = 4;
const std::vector<std::size_t> kElapsed = {1};

struct Setup {
  hydraulics::Network network;
  std::vector<LeakScenario> train;
  std::vector<LeakScenario> test;
  sensing::SensorSet sensors;
  sensing::NoiseModel noise;
  std::uint64_t noise_seed = 0;
  std::vector<InferenceInputs> test_inputs;
  double network_build_s = 0.0;
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const double build_start = now_seconds();
  s->network = networks::make_epa_net();
  s->network_build_s = since(build_start);

  // The variant mix of bench_phase1_training: hydraulic variants at
  // moderate rates replay from the checkpoint; tank drawdowns run full.
  ScenarioConfig config;
  config.max_events = 3;
  config.seed = derive_seed(seed, 1);
  config.faults = {
      make_fault_spec(FaultKind::kPumpOutage, 0.25),
      make_fault_spec(FaultKind::kValveClosure, 0.25),
      make_fault_spec(FaultKind::kLeakRamp, 0.25),
      make_fault_spec(FaultKind::kDemandSurge, 0.25),
      make_fault_spec(FaultKind::kTankDrawdown, 0.15),
  };
  ScenarioGenerator generator(s->network, config);
  s->train = generator.generate(kTrainScenarios);
  s->test = generator.generate(kTestScenarios);

  // Placement is part of Phase I and is redone in every trial; the set-up
  // copy only featurizes the held-out set.
  Tracer untraced;
  s->sensors = place_sensors(s->network, untraced);
  s->noise_seed = derive_seed(seed, 3);

  // Held-out observations, featurized exactly as Phase II sees them.
  const SnapshotBatch test_batch(s->network, s->test, kElapsed);
  Rng root(derive_seed(seed, 4));
  s->test_inputs.resize(s->test.size());
  for (std::size_t i = 0; i < s->test.size(); ++i) {
    Rng rng = root.split();
    const auto faults = sensing::resolve_sensor_faults(s->test[i].sensor_faults,
                                                       s->sensors.size());
    auto& features = s->test_inputs[i].features;
    features.resize(s->sensors.size() + 1);
    test_batch.features_into(i, s->sensors, 0, s->noise, rng, true, faults, features);
  }
  return s;
}

/// One measurement pass: Phase I trials back to back until `seconds`
/// have passed (at least kMinTrials), each followed by held-out Phase II.
struct Pass {
  std::vector<double> train_s;
  std::vector<std::vector<double>> infer_ms;  // per held-out event, one per trial
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Kept from the last trial for the correctness gates.
  std::unique_ptr<SnapshotBatch> batch;
  std::vector<InferenceResult> results;
};

Pass measure(const Setup& s, double seconds, const std::string& artifact, Tracer& tracer,
             const std::vector<InferenceResult>* reference) {
  Pass pass;
  pass.infer_ms.resize(s.test_inputs.size());
  Layers& layers = pass.layers;
  const double pass_start = now_seconds();
  for (std::size_t trial = 0; trial < kMinTrials || since(pass_start) < seconds; ++trial) {
    ProfileModel profile;
    std::unique_ptr<SnapshotBatch> batch;
    {
      const double trial_start = now_seconds();
      const Span train_span(tracer, "bench.train");
      const sensing::SensorSet sensors = place_sensors(s.network, tracer, train_span.id(), &layers);
      if (!same_sensors(sensors, s.sensors)) ++pass.failed;
      double t = now_seconds();
      {
        const Span span(tracer, "hydraulics.simulate", train_span.id());
        batch = std::make_unique<SnapshotBatch>(s.network, s.train, kElapsed);
      }
      layers.hydraulics_simulate_s += since(t);
      const SnapshotBatchStats& stats = batch->stats();
      layers.hydraulics_linear_solves += static_cast<double>(stats.total_linear_solves());
      layers.hydraulics_steps += static_cast<double>(stats.total_steps());
      layers.hydraulics_scenarios += static_cast<double>(stats.scenarios);
      layers.hydraulics_replayed += static_cast<double>(stats.replayed);

      t = now_seconds();
      ml::MultiLabelDataset dataset;
      {
        const Span span(tracer, "sensing.build_dataset", train_span.id());
        dataset = batch->build_dataset(s.train, sensors, 0, s.noise, s.noise_seed, true);
      }
      layers.sensing_build_dataset_s += since(t);
      layers.sensing_rows += static_cast<double>(dataset.num_samples());

      // train_profile's fields, set by hand so the fit is timed alone.
      profile.sensors = sensors;
      profile.noise = s.noise;
      profile.include_time_feature = true;
      profile.kind = ModelKind::kHybridRsl;
      profile.elapsed_index = 0;
      profile.model = ml::MultiLabelModel(make_classifier_factory(ModelKind::kHybridRsl));
      t = now_seconds();
      {
        const Span span(tracer, "ml.fit", train_span.id());
        profile.model.fit(dataset, true);
      }
      profile.train_seconds = since(t);
      layers.ml_fit_s += profile.train_seconds;
      const ml::ForestCompileReport forest = profile.model.forest_compile_report();
      layers.ml_compile_s += forest.seconds;
      layers.ml_trees = static_cast<double>(forest.trees);
      layers.ml_labels = static_cast<double>(profile.model.num_labels());

      t = now_seconds();
      {
        const Span span(tracer, "io.save", train_span.id());
        profile.save_file(artifact);
      }
      layers.io_save_s += since(t);
      layers.io_artifact_bytes = static_cast<double>(std::filesystem::file_size(artifact));
      pass.train_s.push_back(since(trial_start));
    }

    // Held-out Phase II with the fresh profile: batched, then one by one.
    const InferenceEngine engine(profile);
    const InferenceEngine serial(profile, {.parallel = false});
    std::vector<InferenceResult> results;
    {
      const Span eval_span(tracer, "bench.eval");
      {
        const Span span(tracer, "inference.infer_batch", eval_span.id());
        results = engine.infer_batch(s.test_inputs);
      }
      // One event at a time over the whole held-out set.
      for (std::size_t i = 0; i < s.test_inputs.size(); ++i) {
        const double event_start = now_seconds();
        const Span span(tracer, "inference.infer", eval_span.id(), i + 1);
        const InferenceResult one = serial.infer(s.test_inputs[i]);
        pass.infer_ms[i].push_back(1e3 * since(event_start));
        if (!same_result(one, results[i])) ++pass.failed;
      }
    }
    add_engine_telemetry(layers, engine.telemetry_snapshot());
    add_engine_telemetry(layers, serial.telemetry_snapshot());
    for (const auto& r : results) {
      if (r.predicted != r.predicted_iot_only) layers.fusion_changed += 1.0;
    }
    layers.fusion_snapshots += static_cast<double>(results.size());

    // Training is deterministic per seed: every trial must localize the
    // held-out set exactly as the first one did.
    const auto& want = reference != nullptr ? *reference : pass.results;
    if (!want.empty() && !same_results(results, want)) ++pass.failed;
    pass.attempted += 1 + 2 * results.size();
    pass.batch = std::move(batch);
    pass.results = std::move(results);
  }
  layers.trace_region_s = since(pass_start);
  layers.trace_ops = static_cast<double>(pass.train_s.size());
  return pass;
}

bool same_snapshots(const SnapshotBatch& a, const SnapshotBatch& b) {
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

}  // namespace

Report run_train_epa(const Args& args, Tracer& tracer) {
  EndToEnd e2e;
  const auto setup = repeated_setup(&e2e.setup_s, [&] { return make_setup(args.seed); });
  std::filesystem::create_directories(args.out_dir);
  const std::string artifact = args.out_dir + "/train_epa.aquamodl";

  Report report;
  Pass pass;
  if (args.trace) {
    // Untraced and traced halves; their ratio is the tracing overhead.
    const Pass untraced = measure(*setup, args.seconds / 2, artifact, tracer, nullptr);
    tracer.set_enabled(true);
    pass = measure(*setup, args.seconds / 2, artifact, tracer, &untraced.results);
    tracer.set_enabled(false);
    pass.layers.trace_overhead_frac = median(pass.train_s) / median(untraced.train_s) - 1.0;
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
  } else {
    pass = measure(*setup, args.seconds, artifact, tracer, nullptr);
  }
  report.attempted += pass.attempted;
  report.failed += pass.failed;

  // Gate: checkpoint replay reproduces full runs snapshot for snapshot.
  const SnapshotBatch full(setup->network, setup->train, kElapsed, {}, true, false);
  ++report.attempted;
  if (!same_snapshots(*pass.batch, full)) {
    std::fprintf(stderr, "train_epa: replayed snapshots differ from full runs\n");
    ++report.failed;
  }
  // Gate: load_file(save_file(p)) localizes bit-identically.
  const ProfileModel loaded = ProfileModel::load_file(artifact);
  ++report.attempted;
  if (!same_results(InferenceEngine(loaded).infer_batch(setup->test_inputs), pass.results)) {
    std::fprintf(stderr, "train_epa: reloaded profile predicts differently\n");
    ++report.failed;
  }
  std::filesystem::remove(artifact);

  std::vector<double> scores;
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    scores.push_back(ml::hamming_score(pass.results[i].predicted, setup->test[i].truth));
  }
  pass.layers.hamming = bootstrap_mean_ci(scores, derive_seed(args.seed, 99));
  pass.layers.networks_build_s = setup->network_build_s;

  e2e.train_s = fast_time(pass.train_s);
  // Every trial localizes every held-out event once; percentiles are over
  // the events' quiet times (kTestScenarios events: ten beyond p99).
  const std::vector<double> quiet_ms = quiet_times(pass.infer_ms);
  e2e.localize_p50_ms = quantile(quiet_ms, 50.0);
  e2e.localize_p99_ms = quantile(quiet_ms, 99.0);
  e2e.localize_per_s = 1e3 / aqua::mean(quiet_ms);
  e2e.hamming = pass.layers.hamming.mean;
  finish_report(report, e2e, pass.layers, tracer);
  return report;
}

}  // namespace aquabench
