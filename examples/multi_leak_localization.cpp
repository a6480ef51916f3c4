// The paper's core workflow end to end on the real-world-scale network:
// Phase I trains a HybridRSL profile on simulated multi-failure scenarios
// over WSSC-SUBNET; Phase II localizes fresh concurrent leaks from live
// IoT deltas, then sharpens the answer with weather and tweet evidence.
//
//   ./example_multi_leak_localization
#include <cstdio>

#include "core/aquascale.hpp"

using namespace aqua;
using namespace aqua::core;

int main() {
  const auto net = networks::make_wssc_subnet();
  std::printf("network: %s (%zu nodes, %zu links)\n", net.name().c_str(), net.num_nodes(),
              net.num_links());

  // Phase 0: scenario corpus + simulation (EPANET++ runs, parallelized).
  ExperimentConfig config;
  config.train_samples = 400;  // demo-sized; benches and the paper use more
  config.test_samples = 20;
  config.scenarios.min_events = 1;
  config.scenarios.max_events = 4;
  config.scenarios.cold_weather = true;  // winter operating conditions
  config.elapsed_slots = {1};
  config.seed = 42;
  std::printf("simulating %zu training scenarios...\n", config.train_samples);
  ExperimentContext context(net, config);

  // Phase I: offline profile (Algorithm 1) at 30% IoT deployment.
  EvalOptions options;
  options.kind = ModelKind::kHybridRsl;
  options.iot_percent = 30.0;
  options.tweets.clique_radius_m = 30.0;
  std::printf("training HybridRSL profile at %.0f%% IoT coverage...\n", options.iot_percent);
  const ProfileModel profile = context.train(options);
  std::printf("Phase I done in %.1f s (%zu sensors: %zu pressure, %zu flow)\n",
              profile.train_seconds, profile.sensors.size(),
              profile.sensors.count(sensing::SensorKind::kPressure),
              profile.sensors.count(sensing::SensorKind::kFlow));

  // Phase II on one fresh event (Algorithm 2), stepwise.
  const auto& scenario = context.test_scenarios().front();
  std::printf("\nground truth: %zu concurrent leaks at slot %zu:", scenario.events.size(),
              scenario.leak_slot);
  for (const auto& event : scenario.events) {
    std::printf(" %s(EC=%.4f)", net.node(event.node).name.c_str(), event.coefficient);
  }
  std::printf("\n");

  Rng rng(7);
  InferenceInputs inputs;
  inputs.features = context.test_batch().features(0, profile.sensors, 0, profile.noise, rng,
                                                  profile.include_time_feature);

  // Weather expert: it is 12 F outside, these nodes are frozen.
  inputs.frozen = scenario.frozen;
  inputs.p_leak_given_freeze = 1.0 / (1.0 + config.scenarios.freeze.p_freeze);

  // Human expert: tweets collected since the leak started.
  std::vector<hydraulics::NodeId> leak_nodes;
  for (const auto& event : scenario.events) leak_nodes.push_back(event.node);
  fusion::TweetGenerator tweets(options.tweets);
  const auto stream = tweets.generate(net, leak_nodes, 1, rng);
  const auto cliques = tweets.build_cliques(net, stream);
  inputs.cliques = to_label_cliques(cliques, context.labels());
  std::printf("observed %zu tweets forming %zu cliques\n", stream.size(), inputs.cliques.size());

  const InferenceEngine engine(profile);
  const InferenceResult result = engine.infer(inputs);

  auto report = [&](const char* label, const ml::Labels& predicted) {
    std::printf("%-28s hamming %.3f, predicted {", label,
                ml::hamming_score(predicted, scenario.truth));
    for (std::size_t v = 0; v < predicted.size(); ++v) {
      if (predicted[v] != 0) {
        std::printf(" %s", net.node(context.labels().node_of(v)).name.c_str());
      }
    }
    std::printf(" }\n");
  };
  report("IoT profile only:", result.predicted_iot_only);
  report("after weather + human:", result.predicted);
  std::printf("weather updates: %zu nodes; human tuning forced %zu nodes; "
              "inference took %.1f ms\n",
              result.weather_updates, result.tuning.added_labels.size(),
              result.infer_seconds * 1000.0);

  // Whole-test-set comparison.
  const auto base = context.evaluate_profile(profile, options);
  EvalOptions fused_options = options;
  fused_options.use_weather = true;
  fused_options.use_human = true;
  const auto fused = context.evaluate_profile(profile, fused_options);
  std::printf("\nacross %zu test events: IoT-only hamming %.3f -> fused %.3f (+%.3f)\n",
              fused.test_samples, base.hamming, fused.hamming, fused.increment());
  return 0;
}
