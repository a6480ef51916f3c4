// Phase II serving throughput: the seed's per-snapshot path evaluates
// every per-label classifier independently, recomputing the (bitwise
// identical) feature transform once per label. The batched InferenceEngine
// hoists that shared input map to once per snapshot and runs fusion with
// per-stage telemetry. This bench builds a realistic test batch (weather +
// human sources enabled) on both builtin networks, verifies the engine is
// bit-identical to the naive sequential loop (a divergence fails the
// bench's gate and makes it exit nonzero), then times both and reports
// throughput, p50/p95 per-snapshot latency, and the engine's per-stage
// telemetry.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/inference_engine.hpp"
#include "networks/builtin.hpp"

using namespace aqua;
using namespace aqua::core;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The seed's sequential Algorithm 2: per-label predict_proba (each label
/// recomputes the full feature transform) followed by the fusion stages.
InferenceResult naive_infer(const ProfileModel& profile, const InferenceInputs& inputs) {
  InferenceResult result;
  result.beliefs.p_leak = profile.model.predict_proba(inputs.features);
  result.predicted_iot_only = result.beliefs.predicted_set();
  if (!inputs.frozen.empty()) {
    result.weather_updates =
        fusion::apply_weather_update(result.beliefs, inputs.frozen, inputs.p_leak_given_freeze);
  }
  result.energy_before =
      fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  if (!inputs.cliques.empty()) {
    result.tuning =
        fusion::apply_human_tuning(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  }
  result.energy_after =
      fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  result.predicted = result.beliefs.predicted_set();
  return result;
}

bool identical(const InferenceResult& a, const InferenceResult& b) {
  return a.beliefs.p_leak == b.beliefs.p_leak && a.predicted == b.predicted &&
         a.predicted_iot_only == b.predicted_iot_only &&
         a.weather_updates == b.weather_updates &&
         a.tuning.added_labels == b.tuning.added_labels &&
         a.energy_before == b.energy_before && a.energy_after == b.energy_after;
}

/// Builds the same inference batch evaluate_profile would run: per-test-
/// scenario features with noise, frozen masks when the scenario is below
/// freezing, and tweet-derived cliques.
std::vector<InferenceInputs> build_batch(ExperimentContext& context, const ProfileModel& profile,
                                         const EvalOptions& options) {
  fusion::TweetGenerator tweet_generator(options.tweets);
  const auto& scenarios = context.test_scenarios();
  const std::size_t elapsed = context.config().elapsed_slots[options.elapsed_index];
  Rng root(context.config().seed ^ 0x9999ULL);

  std::vector<InferenceInputs> batch(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Rng rng = root.split();
    InferenceInputs& inputs = batch[i];
    inputs.features = context.test_batch().features(i, profile.sensors, options.elapsed_index,
                                                    profile.noise, rng,
                                                    profile.include_time_feature);
    inputs.entropy_threshold = options.entropy_threshold;
    if (scenarios[i].temperature_f < fusion::kFreezeThresholdF) {
      inputs.frozen = scenarios[i].frozen;
    }
    std::vector<hydraulics::NodeId> leak_nodes;
    for (const auto& event : scenarios[i].events) leak_nodes.push_back(event.node);
    const auto tweets = tweet_generator.generate(context.network(), leak_nodes, elapsed, rng);
    const auto cliques = tweet_generator.build_cliques(context.network(), tweets);
    inputs.cliques = to_label_cliques(cliques, context.labels());
  }
  return batch;
}

void run_network(const hydraulics::Network& net, std::size_t train_samples,
                 std::size_t test_samples, const std::string& key, bench::Metrics& metrics,
                 bench::Gates& gates) {
  ExperimentConfig config;
  config.train_samples = bench::scaled(train_samples);
  config.test_samples = bench::scaled(test_samples);
  config.scenarios.max_events = 2;
  config.seed = 2024;
  ExperimentContext context(net, config);

  EvalOptions options;
  options.kind = ModelKind::kHybridRsl;
  const ProfileModel profile = context.train(options);
  const std::vector<InferenceInputs> batch = build_batch(context, profile, options);

  const InferenceEngine engine(profile);

  // Correctness gate before timing: engine batch vs the naive loop.
  const auto engine_check = engine.infer_batch(batch);
  bool bit_identical = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!identical(engine_check[i], naive_infer(profile, batch[i]))) {
      bit_identical = false;
      break;
    }
  }
  gates.check(bit_identical, key + ": engine diverges from the sequential loop");

  // Naive sequential loop (per-snapshot, per-label transform recompute).
  std::vector<double> naive_latency(batch.size());
  const auto t_naive = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = naive_infer(profile, batch[i]);
    naive_latency[i] = seconds_since(t0);
    (void)result;
  }
  const double naive_s = seconds_since(t_naive);

  // Batched engine (compiled forest kernel).
  engine.reset_telemetry();
  const auto t_engine = std::chrono::steady_clock::now();
  const auto results = engine.infer_batch(batch);
  const double engine_s = seconds_since(t_engine);
  std::vector<double> engine_latency(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) engine_latency[i] = results[i].infer_seconds;

  const double n = static_cast<double>(batch.size());
  const double naive_rate = naive_s > 0.0 ? n / naive_s : 0.0;
  const double engine_rate = engine_s > 0.0 ? n / engine_s : 0.0;
  const double speedup = engine_s > 0.0 ? naive_s / engine_s : 0.0;
  const auto forest = engine.forest_compile_report();

  std::printf("\n%s (%zu nodes, %zu labels), %zu snapshots, HybridRSL @100%% IoT:\n",
              net.name().c_str(), net.num_nodes(), profile.model.num_labels(), batch.size());
  Table table({"path", "wall [s]", "snapshots/s", "p50 [ms]", "p95 [ms]"});
  table.add_row({"sequential loop", Table::num(naive_s, 3), Table::num(naive_rate, 1),
                 Table::num(1e3 * percentile(naive_latency, 50.0), 3),
                 Table::num(1e3 * percentile(naive_latency, 95.0), 3)});
  table.add_row({"engine", Table::num(engine_s, 3), Table::num(engine_rate, 1),
                 Table::num(1e3 * percentile(engine_latency, 50.0), 3),
                 Table::num(1e3 * percentile(engine_latency, 95.0), 3)});
  table.print();
  std::printf("engine vs sequential: %.1fx | bit-identical: %s\n", speedup,
              bit_identical ? "yes" : "NO");
  std::printf("forest compile: %zu trees / %zu nodes across %zu heads in %.3f ms\n", forest.trees,
              forest.internal_nodes, forest.classifiers, 1e3 * forest.seconds);

  metrics.emplace_back(key + ".snapshots", n);
  metrics.emplace_back(key + ".labels", static_cast<double>(profile.model.num_labels()));
  metrics.emplace_back(key + ".sequential_s", naive_s);
  metrics.emplace_back(key + ".engine_s", engine_s);
  metrics.emplace_back(key + ".sequential_snapshots_per_s", naive_rate);
  metrics.emplace_back(key + ".engine_snapshots_per_s", engine_rate);
  metrics.emplace_back(key + ".speedup", speedup);
  metrics.emplace_back(key + ".sequential_p50_ms", 1e3 * percentile(naive_latency, 50.0));
  metrics.emplace_back(key + ".sequential_p95_ms", 1e3 * percentile(naive_latency, 95.0));
  metrics.emplace_back(key + ".engine_p50_ms", 1e3 * percentile(engine_latency, 50.0));
  metrics.emplace_back(key + ".engine_p95_ms", 1e3 * percentile(engine_latency, 95.0));
  metrics.emplace_back(key + ".bit_identical", bit_identical ? 1.0 : 0.0);
  metrics.emplace_back(key + ".forest_compile_seconds", forest.seconds);
  metrics.emplace_back(key + ".forest_compiled_trees", static_cast<double>(forest.trees));
  for (const auto& [name, value] : engine.telemetry_snapshot().metrics(key + ".")) {
    metrics.emplace_back(name, value);
  }
}

}  // namespace

int main() {
  bench::banner("Phase II inference serving",
                "sequential per-snapshot loop vs batched InferenceEngine");
  bench::Metrics metrics;
  bench::Gates gates;
  run_network(networks::make_epa_net(), 256, 128, "epa_net", metrics, gates);
  run_network(networks::make_wssc_subnet(), 96, 48, "wssc_subnet", metrics, gates);
  gates.check(bench::json_report("phase2_inference", metrics),
              "write BENCH_phase2_inference.json");
  return gates.exit_status();
}
