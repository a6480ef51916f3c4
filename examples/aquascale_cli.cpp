// aquascale_cli — command-line front end for the whole system: the
// simulation substrate, Phase I training to a persisted profile, and
// Phase II serving.
//
//   aquascale_cli export <epa|wssc> <out.inp>   write a built-in network
//   aquascale_cli solve <net.inp>               steady-state snapshot report
//   aquascale_cli simulate <net.inp> [hours]    extended-period summary
//   aquascale_cli leak <net.inp> <node> <EC> [hours]
//                                               leak what-if: drawdown + loss
//   aquascale_cli train <epa|wssc> <out.model> [scenarios] [kind]
//                                               simulate a scenario corpus,
//                                               train the profile, save it
//   aquascale_cli eval <epa|wssc> <model.file> [scenarios]
//                                               load a saved profile and score
//                                               it on a fresh test corpus
//   aquascale_cli serve <epa|wssc|mixed> [batches] [batch_size] [kind]
//                                               host district profiles in the
//                                               serving daemon, stream
//                                               snapshots, hot-swap mid-stream
//
// Networks use the INP dialect documented in hydraulics/inp_io.hpp
// (export a built-in one to see the format). Profiles are AQUAMODL
// artifacts (io/artifact.hpp): Phase I is the dominant cost of a
// deployment, so `train` persists it and `eval`/`serve` start from a warm
// artifact. `mixed` serves one EPA-NET and one WSSC district in the same
// daemon. kinds: LinearR LogisticR GB RF SVM HybridRSL (default HybridRSL).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/aquascale.hpp"
#include "core/inference_engine.hpp"
#include "serving/daemon.hpp"

using namespace aqua;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aquascale_cli export <epa|wssc> <out.inp>\n"
               "  aquascale_cli solve <net.inp>\n"
               "  aquascale_cli simulate <net.inp> [hours]\n"
               "  aquascale_cli leak <net.inp> <node> <EC> [hours]\n"
               "  aquascale_cli train <epa|wssc> <out.model> [scenarios] [kind]\n"
               "  aquascale_cli eval <epa|wssc> <model.file> [scenarios]\n"
               "  aquascale_cli serve <epa|wssc|mixed> [batches] [batch_size] [kind]\n");
  return 2;
}

hydraulics::Network make_network(const std::string& which) {
  if (which == "epa") return networks::make_epa_net();
  if (which == "wssc") return networks::make_wssc_subnet();
  throw InvalidArgument("unknown network: " + which);
}

core::ModelKind parse_kind(const std::string& name) {
  for (const auto kind : core::all_model_kinds()) {
    if (core::model_kind_name(kind) == name) return kind;
  }
  throw InvalidArgument("unknown model kind: " + name);
}

std::size_t parse_count(const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument("not a count: " + text);
  }
  return std::stoul(text);
}

hydraulics::Network load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open " + path);
  return hydraulics::read_inp(in);
}

int cmd_export(const std::string& which, const std::string& out_path) {
  const auto net = make_network(which);
  std::ofstream out(out_path);
  if (!out) throw InvalidArgument("cannot write " + out_path);
  hydraulics::write_inp(net, out);
  std::printf("wrote %s (%zu nodes, %zu links) to %s\n", net.name().c_str(), net.num_nodes(),
              net.num_links(), out_path.c_str());
  return 0;
}

int cmd_solve(const std::string& path) {
  const auto net = load(path);
  hydraulics::GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  std::printf("%s: %s in %zu iterations\n", net.name().c_str(),
              state.converged ? "converged" : "DID NOT CONVERGE", state.iterations);
  double min_p = 1e18, max_p = -1e18, sum_p = 0.0;
  std::size_t junctions = 0;
  for (const auto v : net.junction_ids()) {
    min_p = std::min(min_p, state.pressure[v]);
    max_p = std::max(max_p, state.pressure[v]);
    sum_p += state.pressure[v];
    ++junctions;
  }
  std::printf("junction pressure [m]: min %.2f / avg %.2f / max %.2f\n", min_p,
              sum_p / static_cast<double>(junctions), max_p);
  double source_output = 0.0;
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    const auto& link = net.link(l);
    if (net.node(link.from).has_fixed_head()) source_output += state.flow[l];
    if (net.node(link.to).has_fixed_head()) source_output -= state.flow[l];
  }
  std::printf("net source output: %.1f L/s; leaks discharging %.1f L/s\n",
              source_output * 1000.0, state.total_emitter_outflow() * 1000.0);
  return state.converged ? 0 : 1;
}

int cmd_simulate(const std::string& path, double hours) {
  const auto net = load(path);
  hydraulics::SimulationOptions options;
  options.duration_s = hours * 3600.0;
  hydraulics::Simulation sim(net, options);
  const auto results = sim.run();
  std::printf("%s: %zu steps over %.1f h\n", net.name().c_str(), results.num_steps(), hours);
  // Min service pressure across the run (the number operators watch).
  double worst = 1e18;
  std::size_t worst_step = 0;
  hydraulics::NodeId worst_node = 0;
  for (std::size_t s = 0; s < results.num_steps(); ++s) {
    for (const auto v : net.junction_ids()) {
      if (results.pressure(s, v) < worst) {
        worst = results.pressure(s, v);
        worst_step = s;
        worst_node = v;
      }
    }
  }
  std::printf("worst service pressure: %.2f m at %s, t = %.2f h\n", worst,
              net.node(worst_node).name.c_str(), results.time(worst_step) / 3600.0);
  std::printf("water lost to leaks: %.1f m^3\n", results.leaked_volume());
  return 0;
}

int cmd_leak(const std::string& path, const std::string& node_name, double ec, double hours) {
  auto net = load(path);
  const auto node = net.node_id(node_name);
  hydraulics::SimulationOptions options;
  options.duration_s = hours * 3600.0;

  hydraulics::Simulation simulation(net, options);
  const auto base = simulation.run();
  const hydraulics::LeakEvent leak{node, ec, 0.5, 0.0};
  const auto leaky = simulation.run({.leaks = {&leak, 1}});

  std::printf("leak what-if at %s (EC = %.4f) over %.1f h:\n", node_name.c_str(), ec, hours);
  std::printf("  water lost: %.1f m^3\n", leaky.leaked_volume());
  const std::size_t last = leaky.num_steps() - 1;
  std::printf("  pressure at %s: %.2f -> %.2f m\n", node_name.c_str(),
              base.pressure(last, node), leaky.pressure(last, node));
  // The node whose pressure dropped most (where complaints would come from).
  double best_drop = 0.0;
  hydraulics::NodeId best_node = node;
  for (const auto v : net.junction_ids()) {
    const double drop = base.pressure(last, v) - leaky.pressure(last, v);
    if (drop > best_drop) {
      best_drop = drop;
      best_node = v;
    }
  }
  std::printf("  largest drawdown: %s (-%.2f m)\n", net.node(best_node).name.c_str(), best_drop);
  return 0;
}

struct Corpus {
  std::vector<core::LeakScenario> scenarios;
  std::unique_ptr<core::SnapshotBatch> batch;
};

Corpus simulate_corpus(const hydraulics::Network& network, std::size_t count,
                       std::uint64_t seed) {
  core::ScenarioConfig config;
  config.seed = seed;
  core::ScenarioGenerator generator(network, config);
  Corpus corpus;
  corpus.scenarios = generator.generate(count);
  corpus.batch = std::make_unique<core::SnapshotBatch>(network, corpus.scenarios,
                                                       std::vector<std::size_t>{1});
  return corpus;
}

int cmd_train(const std::string& which, const std::string& out_path, std::size_t count,
              const std::string& kind_name) {
  core::ProfileTrainingConfig training;
  training.kind = parse_kind(kind_name);  // fail before the expensive simulation

  const auto network = make_network(which);
  std::printf("simulating %zu training scenarios on %s...\n", count, network.name().c_str());
  const Corpus corpus = simulate_corpus(network, count, /*seed=*/1234);
  const auto sensors = sensing::full_observation(network);
  const auto profile =
      core::train_profile(*corpus.batch, corpus.scenarios, sensors, /*elapsed_index=*/0, training);
  std::printf("trained %s profile (%zu labels, %zu sensors) in %.2fs\n", kind_name.c_str(),
              profile.model.num_labels(), sensors.size(), profile.train_seconds);

  profile.save_file(out_path);
  std::printf("saved artifact to %s\n", out_path.c_str());
  return 0;
}

int cmd_eval(const std::string& which, const std::string& model_path, std::size_t count) {
  const auto network = make_network(which);
  const auto profile = core::ProfileModel::load_file(model_path);
  std::printf("loaded %s profile (%zu labels, %zu sensors) — skipping Phase I\n",
              core::model_kind_name(profile.kind).c_str(), profile.model.num_labels(),
              profile.sensors.size());

  std::printf("simulating %zu test scenarios on %s...\n", count, network.name().c_str());
  const Corpus corpus = simulate_corpus(network, count, /*seed=*/777);
  const auto dataset =
      corpus.batch->build_dataset(corpus.scenarios, profile.sensors, profile.elapsed_index,
                                  profile.noise, /*seed=*/4321, profile.include_time_feature);

  // The batched path thresholded at 0.5 is MultiLabelModel::predict.
  ml::Matrix proba;
  profile.model.predict_proba_batch_into(dataset.features, proba);
  std::vector<ml::Labels> predicted(proba.rows(), ml::Labels(proba.cols()));
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    for (std::size_t v = 0; v < proba.cols(); ++v) predicted[i][v] = proba(i, v) > 0.5 ? 1 : 0;
  }
  std::vector<ml::Labels> truth;
  truth.reserve(corpus.scenarios.size());
  for (const auto& s : corpus.scenarios) truth.push_back(s.truth);

  const double hamming = ml::mean_hamming_score(predicted, truth);
  const auto prf = ml::micro_precision_recall(predicted, truth);
  std::printf("hamming %.3f, precision %.3f, recall %.3f, f1 %.3f over %zu scenarios\n", hamming,
              prf.precision, prf.recall, prf.f1, corpus.scenarios.size());
  return 0;
}

/// One served district: a trained profile plus the context to synthesize
/// its live snapshot stream. The network lives behind a unique_ptr because
/// ExperimentContext keeps a reference to it — the address must survive
/// the District being moved into the tenants vector.
struct District {
  std::string name;
  std::unique_ptr<hydraulics::Network> net;
  std::unique_ptr<core::ExperimentContext> context;  // references *net
  std::shared_ptr<const core::ProfileModel> profile;
  std::unique_ptr<fusion::TweetGenerator> tweets;
  Rng root{0};
};

District make_district(const std::string& name, const core::EvalOptions& options,
                       std::size_t serve_scenarios) {
  District district;
  district.name = name;
  district.net = std::make_unique<hydraulics::Network>(make_network(name));
  core::ExperimentConfig config;
  config.train_samples = 200;
  config.test_samples = serve_scenarios;
  config.seed = 7331;
  std::printf("[%s] simulating %zu train + %zu serve scenarios...\n", name.c_str(),
              config.train_samples, config.test_samples);
  district.context = std::make_unique<core::ExperimentContext>(*district.net, config);
  district.profile = std::make_shared<const core::ProfileModel>(district.context->train(options));
  std::printf("[%s] profile: %s, %zu labels, trained in %.2f s\n", name.c_str(),
              core::model_kind_name(district.profile->kind).c_str(),
              district.profile->model.num_labels(), district.profile->train_seconds);
  district.tweets = std::make_unique<fusion::TweetGenerator>(options.tweets);
  district.root = Rng(config.seed ^ 0x9999ULL);
  return district;
}

core::InferenceInputs make_inputs(District& district, std::size_t scenario) {
  const core::ExperimentContext& context = *district.context;
  const core::ProfileModel& profile = *district.profile;
  Rng rng = district.root.split();
  core::InferenceInputs inputs;
  inputs.features = context.test_batch().features(scenario, profile.sensors, 0, profile.noise,
                                                  rng, profile.include_time_feature);
  const auto& s = context.test_scenarios()[scenario];
  if (s.temperature_f < fusion::kFreezeThresholdF) inputs.frozen = s.frozen;
  std::vector<hydraulics::NodeId> leak_nodes;
  for (const auto& event : s.events) leak_nodes.push_back(event.node);
  const auto generated = district.tweets->generate(context.network(), leak_nodes, 1, rng);
  inputs.cliques =
      core::to_label_cliques(district.tweets->build_cliques(context.network(), generated),
                             context.labels());
  return inputs;
}

int cmd_serve(const std::string& which, std::size_t batches, std::size_t batch_size,
              const std::string& kind_name) {
  core::EvalOptions options;
  options.kind = parse_kind(kind_name);
  const std::size_t serve_scenarios = batches * batch_size;
  const std::vector<std::string> names =
      which == "mixed" ? std::vector<std::string>{"epa", "wssc"} : std::vector<std::string>{which};
  std::vector<District> tenants;
  for (const auto& name : names) tenants.push_back(make_district(name, options, serve_scenarios));

  // Host every tenant in one daemon.
  std::atomic<std::size_t> leaks_flagged{0};
  std::vector<serving::DistrictConfig> configs(tenants.size());
  for (std::size_t d = 0; d < tenants.size(); ++d) {
    configs[d].name = tenants[d].name;
    configs[d].model = std::make_shared<serving::ModelBundle>(tenants[d].profile, 1);
    configs[d].queue_capacity = serve_scenarios * 2;
    configs[d].max_batch = batch_size;
  }
  serving::ServingDaemon daemon(
      configs, {}, [&](const serving::ResultEvent&, const core::InferenceResult& result) {
        std::size_t flags = 0;
        for (const auto flag : result.predicted) flags += flag != 0;
        leaks_flagged.fetch_add(flags, std::memory_order_relaxed);
      });

  // Stream the snapshots, round-robin across tenants, one batch at a time
  // per district. Midway, hot-swap every district's model from a freshly
  // written artifact (save_file, then load_bundle) to show the RCU path.
  for (std::size_t b = 0; b < batches; ++b) {
    if (b == batches / 2) {
      for (std::size_t d = 0; d < tenants.size(); ++d) {
        const std::string path = "aquascale_serve_" + tenants[d].name + ".aquamodl";
        tenants[d].profile->save_file(path);
        daemon.swap_model(d, serving::load_bundle(path, 2));
        std::printf("[%s] hot-swapped to artifact model v2\n", tenants[d].name.c_str());
        std::remove(path.c_str());
      }
    }
    for (std::size_t d = 0; d < tenants.size(); ++d) {
      for (std::size_t i = 0; i < batch_size; ++i) {
        daemon.submit(d, make_inputs(tenants[d], b * batch_size + i));
      }
    }
  }
  daemon.drain();

  std::size_t served = 0;
  for (std::size_t d = 0; d < tenants.size(); ++d) {
    served += daemon.district_telemetry(d).count(serving::ServingDaemon::kCounterServed);
  }
  std::printf("\nserved %zu snapshots across %zu district(s); %zu leak flags raised\n", served,
              tenants.size(), leaks_flagged.load());
  std::printf("%-40s %12s\n", "telemetry", "value");
  for (const auto& [name, value] : daemon.metrics()) {
    std::printf("%-40s %12.6f\n", name.c_str(), value);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 3) return usage();
    const std::string command = argv[1];
    if (command == "export" && argc == 4) return cmd_export(argv[2], argv[3]);
    if (command == "solve" && argc == 3) return cmd_solve(argv[2]);
    if (command == "simulate" && (argc == 3 || argc == 4)) {
      return cmd_simulate(argv[2], argc == 4 ? std::atof(argv[3]) : 24.0);
    }
    if (command == "leak" && (argc == 5 || argc == 6)) {
      return cmd_leak(argv[2], argv[3], std::atof(argv[4]), argc == 6 ? std::atof(argv[5]) : 6.0);
    }
    if (command == "train" && argc >= 4 && argc <= 6) {
      return cmd_train(argv[2], argv[3], argc > 4 ? parse_count(argv[4]) : 200,
                       argc > 5 ? argv[5] : "HybridRSL");
    }
    if (command == "eval" && (argc == 4 || argc == 5)) {
      return cmd_eval(argv[2], argv[3], argc > 4 ? parse_count(argv[4]) : 50);
    }
    if (command == "serve" && argc >= 3 && argc <= 6) {
      return cmd_serve(argv[2], argc > 3 ? parse_count(argv[3]) : 4,
                       argc > 4 ? parse_count(argv[4]) : 32, argc > 5 ? argv[5] : "HybridRSL");
    }
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
