// serve_mixed: Phase II through serving::ServingDaemon. Four districts
// alternate EPA-NET and WSSC-SUBNET profiles (trained from a fixed corpus
// and saved in set-up; WSSC scenarios are cold-weather so the weather
// expert fires, and every request carries tweet cliques so human tuning
// runs). One submit thread sends open-loop, seeded exponential arrivals
// with skewed district weights at fixed offered rates; each request is
// timed from its due time. One publisher thread hot-swaps mmapped
// artifacts (load_bundle -> swap_model) on a fixed period the whole time.
//
// The daemon runs kWorkers workers on serial engines, so with the submit
// thread and the publisher the benchmark keeps at most four threads busy
// on four cores. A batch fanned out over the global pool, as the engine
// does by default, put nine threads on those cores, and the latencies
// measured the host's scheduler more than the daemon.
//
// ml predict (compiled forests of both networks, resident together),
// fusion, the serving queue and io do all the work; there is no hydraulics
// and no fit in the measured region.
//
// Three phases, all with the publisher running; the first two alternate
// over kRounds rounds, the ladder follows:
//   closed loop     kClosedInFlight requests in flight, districts in turn
//                                                    -> localize_per_s
//   reference rate  kReferenceRate arrivals/s        -> localize_p50/p99_ms
//   ladder          kLadderRates, ascending, until p99 exceeds kLatencyLimitMs
//                                                    -> serving.max_rate_per_s
// The closed-loop rate is the fast side over windows of kClosedWindow
// requests, the reference p50 and p99 the fast side over windows of
// kReferenceWindowS (see add_window_quantiles); every other percentile
// pools a phase's samples.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/inference_engine.hpp"
#include "ml/metrics.hpp"
#include "networks/builtin.hpp"
#include "serving/daemon.hpp"

namespace aquabench {
namespace {

using namespace aqua;
using namespace aqua::core;
using namespace aqua::serving;

constexpr std::size_t kDistricts = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 32;
constexpr aqua::core::InferenceEngineOptions kSerialEngine{.parallel = false};
constexpr std::size_t kQueueCapacity = std::size_t{1} << 20;  // never sheds at ladder rates
constexpr double kLatencyLimitMs = 50.0;
constexpr double kReferenceRate = 2000.0;
// Fixed offered rates, so every run is offered the same load. They bracket
// the daemon's knee on a 4-core host (about 20k-25k/s).
constexpr std::array<double, 8> kLadderRates = {4000,  8000,  12000, 16000,
                                                20000, 24000, 28000, 32000};
// A load_bundle of one network's artifact (mmap, decode, forest compile)
// keeps the publisher busy for a tenth to a fifth of this period on a
// 4-core host.
constexpr double kSwapPeriodS = 1.0;
// One swap per window; 2000 arrivals at kReferenceRate, twenty beyond p99.
constexpr double kReferenceWindowS = kSwapPeriodS;
constexpr std::uint64_t kClosedInFlight = 64;
constexpr std::uint64_t kClosedWindow = 1024;
constexpr double kMaxBacklogS = 0.1;
constexpr int kMmapThreshold = 256 * 1024;
// Shares of --seconds per phase; each ladder rung lasts
// kLadderShare * seconds / kLadderRates.size().
constexpr std::size_t kRounds = 6;
constexpr double kClosedShare = 0.1;
constexpr double kReferenceShare = 0.6;
constexpr double kLadderShare = 0.3;

/// Spin-wait hint: a core's other hardware thread (perhaps a daemon
/// worker) keeps the execution units while the generator waits.
inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// One network kind's serving assets.
struct Kind {
  std::string name;
  std::unique_ptr<hydraulics::Network> network;
  std::shared_ptr<const ProfileModel> profile;
  std::vector<InferenceInputs> pool;
  std::vector<InferenceResult> reference;  // sequential InferenceEngine::infer
  std::vector<double> hamming;             // per pool entry, of the reference
  std::string artifact;
  double train_s = 0.0;
};

struct Setup {
  std::vector<Kind> kinds;
  double network_build_s = 0.0;
  double train_s = 0.0;
};

/// Requests featurized as ExperimentContext::evaluate_profile does with
/// weather and human sources on.
std::vector<InferenceInputs> build_pool(ExperimentContext& context, const ProfileModel& profile,
                                        std::uint64_t seed) {
  const fusion::TweetModelConfig tweets;
  fusion::TweetGenerator tweet_generator(tweets);
  const auto& scenarios = context.test_scenarios();
  const std::size_t elapsed = context.config().elapsed_slots[0];
  const double likelihood_ratio =
      1.0 / std::max(context.config().scenarios.freeze.p_freeze, 1e-6);
  Rng root(seed);
  std::vector<InferenceInputs> pool(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Rng rng = root.split();
    InferenceInputs& inputs = pool[i];
    const auto faults =
        sensing::resolve_sensor_faults(scenarios[i].sensor_faults, profile.sensors.size());
    inputs.features.resize(profile.sensors.size() + (profile.include_time_feature ? 1 : 0));
    context.test_batch().features_into(i, profile.sensors, 0, profile.noise, rng,
                                       profile.include_time_feature, faults, inputs.features);
    inputs.p_leak_given_freeze = likelihood_ratio / (1.0 + likelihood_ratio);
    if (scenarios[i].temperature_f < fusion::kFreezeThresholdF) inputs.frozen = scenarios[i].frozen;
    std::vector<hydraulics::NodeId> leak_nodes;
    for (const auto& event : scenarios[i].events) leak_nodes.push_back(event.node);
    const auto posts = tweet_generator.generate(context.network(), leak_nodes, elapsed, rng);
    inputs.cliques = to_label_cliques(tweet_generator.build_cliques(context.network(), posts),
                                      context.labels());
  }
  return pool;
}

Kind make_kind(const std::string& name, hydraulics::Network network, std::size_t train,
               std::size_t test, bool cold, std::uint64_t corpus_tag, std::uint64_t seed,
               const std::string& out_dir) {
  Kind kind;
  kind.name = name;
  kind.network = std::make_unique<hydraulics::Network>(std::move(network));
  ExperimentConfig config;
  config.train_samples = train;
  config.test_samples = test;
  config.scenarios.max_events = 2;
  config.scenarios.cold_weather = cold;
  // The served profile is a deployment artifact, like the sensor layout:
  // its corpus, placement and training noise are fixed, so every --seed
  // serves the same models and what varies is the requests (their sensor
  // noise, sensor faults and tweets) and their arrivals.
  config.scenarios.seed = derive_seed(kPlacementSeed, corpus_tag);
  config.seed = kPlacementSeed;
  ExperimentContext context(*kind.network, config);

  EvalOptions options;
  options.kind = ModelKind::kHybridRsl;
  options.iot_percent = kIotPercent;
  kind.artifact = out_dir + "/serve_mixed_" + name + ".aquamodl";
  const double train_start = now_seconds();
  kind.profile = std::make_shared<const ProfileModel>(context.train(options));
  kind.profile->save_file(kind.artifact);
  kind.train_s = since(train_start);

  kind.pool = build_pool(context, *kind.profile, derive_seed(seed, 3));
  const InferenceEngine engine(*kind.profile);
  for (std::size_t i = 0; i < kind.pool.size(); ++i) {
    kind.reference.push_back(engine.infer(kind.pool[i]));
    kind.hamming.push_back(
        ml::hamming_score(kind.reference.back().predicted, context.test_scenarios()[i].truth));
  }
  return kind;
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed, const std::string& out_dir) {
  auto s = std::make_unique<Setup>();
  const double build_start = now_seconds();
  auto epa = networks::make_epa_net();
  auto wssc = networks::make_wssc_subnet();
  s->network_build_s = since(build_start);
  s->kinds.push_back(make_kind("epa", std::move(epa), 512, 256, false, 10, derive_seed(seed, 10),
                               out_dir));
  s->kinds.push_back(make_kind("wssc", std::move(wssc), 192, 96, true, 20, derive_seed(seed, 20),
                               out_dir));
  for (const Kind& kind : s->kinds) s->train_s += kind.train_s;
  return s;
}

/// Seeded open-loop arrivals: district by skewed weights (district d gets
/// 1/(d+1)), exponential interarrival times at `rate` over `seconds`.
struct Schedule {
  std::vector<std::size_t> district;
  std::vector<double> offset_s;
};

std::vector<double> district_weights() {
  std::vector<double> weights(kDistricts);
  for (std::size_t d = 0; d < kDistricts; ++d) weights[d] = 1.0 / static_cast<double>(d + 1);
  return weights;
}

Schedule make_schedule(double rate, double seconds, std::uint64_t seed) {
  const std::vector<double> weights = district_weights();
  Rng rng(seed);
  Schedule schedule;
  for (double t = rng.exponential(rate); t < seconds; t += rng.exponential(rate)) {
    schedule.district.push_back(rng.weighted_index(weights));
    schedule.offset_s.push_back(t);
  }
  return schedule;
}

struct Sample {
  double due_s;
  double submit_s;
  double queue_s;
  double complete_s;
};

/// State the result sink shares with the load generator.
struct Sink {
  const Setup* setup = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<std::uint64_t> completed{0};
  std::mutex mutex;  // guards the members below
  std::vector<Sample> samples;
  std::uint64_t mismatches = 0;
  std::uint64_t fusion_changed = 0;

  void on_result(const ResultEvent& event, const InferenceResult& result) {
    const Kind& kind = setup->kinds[event.district % setup->kinds.size()];
    const bool ok = same_result(result, kind.reference[event.sequence % kind.pool.size()]);
    const bool changed = result.predicted != result.predicted_iot_only;
    const double dequeue_s = event.submit_seconds + event.queue_seconds;
    if (tracer->enabled()) {
      const std::uint64_t request = (event.district << 40) | event.sequence;
      const std::uint64_t root = tracer->record("bench.request", event.event_seconds,
                                                event.complete_seconds, 0, request);
      tracer->record("bench.generator_late", event.event_seconds, event.submit_seconds, root,
                     request);
      tracer->record("serving.queue", event.submit_seconds, dequeue_s, root, request);
      tracer->record("serving.infer", dequeue_s, event.complete_seconds, root, request);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    samples.push_back(
        {event.event_seconds, event.submit_seconds, event.queue_seconds, event.complete_seconds});
    if (!ok) ++mismatches;
    if (changed) ++fusion_changed;
    completed.fetch_add(1, std::memory_order_release);
  }

  std::vector<Sample> take() {
    const std::lock_guard<std::mutex> lock(mutex);
    return std::exchange(samples, {});
  }
};

/// One offered rate's samples, pooled over the whole rung.
struct RungResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  // due -> complete
  std::vector<double> queue_ms;
  std::vector<double> infer_ms;
  std::vector<double> late_ms;   // due -> submit
  std::vector<double> offset_s;  // due time since the rung began
  double p99_ms = 0.0;
  bool overloaded = false;  // offering stopped early, backlog past kMaxBacklogS
  bool fails() const { return overloaded || p99_ms > kLatencyLimitMs; }
};

RungResult summarize(double rate, const std::vector<Sample>& samples, double epoch_s) {
  RungResult rung;
  rung.rate = rate;
  for (const Sample& s : samples) {
    rung.latency_ms.push_back(1e3 * (s.complete_s - s.due_s));
    rung.queue_ms.push_back(1e3 * s.queue_s);
    rung.infer_ms.push_back(1e3 * (s.complete_s - s.submit_s - s.queue_s));
    rung.late_ms.push_back(1e3 * (s.submit_s - s.due_s));
    rung.offset_s.push_back(s.due_s - epoch_s);
  }
  rung.p99_ms = quantile(rung.latency_ms, 99.0);
  return rung;
}

/// Appends to `out` the q-th latency percentile of each window
/// kReferenceWindowS long of a reference-rate stretch; localize_p50_ms and
/// localize_p99_ms are the fast side over all windows. Every window holds
/// one hot swap, so a cost the swaps impose shows in every window; a host
/// stall (each holding up every request for tens of milliseconds) or a slow
/// period lands in some windows and not on the fast side.
void add_window_quantiles(const RungResult& reference, double q, std::vector<double>& out) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < reference.latency_ms.size(); ++i) {
    const auto w =
        static_cast<std::size_t>(std::max(0.0, reference.offset_s[i]) / kReferenceWindowS);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(reference.latency_ms[i]);
  }
  for (const auto& window : windows) {
    if (!window.empty()) out.push_back(quantile(window, q));
  }
}

void print_rung(const RungResult& rung) {
  std::printf("  ladder %6.0f/s  p50 %7.3f ms  p99 %8.3f ms%s\n", rung.rate,
              quantile(rung.latency_ms, 50.0), rung.p99_ms,
              rung.overloaded ? "  overloaded" : (rung.fails() ? "  over limit" : ""));
}

/// Highest offered rate meeting the p99 limit. `ladder` ascends and ends at
/// its first failing rung, if any; the knee is placed by one log-log
/// interpolation of p99 between the last passing rung and that one.
double max_rate(const std::vector<RungResult>& ladder) {
  const RungResult& last = ladder.back();
  if (!last.fails()) return last.rate;
  // An overloaded rung may stop before its p99 passes the limit.
  const double fail_p99 = std::max(last.p99_ms, kLatencyLimitMs * 1.0001);
  if (ladder.size() == 1) return last.rate * kLatencyLimitMs / fail_p99;
  const RungResult& pass = ladder[ladder.size() - 2];
  const double f = (std::log(kLatencyLimitMs) - std::log(pass.p99_ms)) /
                   (std::log(fail_p99) - std::log(pass.p99_ms));
  return pass.rate * std::pow(last.rate / pass.rate, f);
}

struct Pass {
  std::vector<double> ref_latency_ms;
  double ref_p50_ms = 0.0;
  double ref_p99_ms = 0.0;
  double closed_loop_rate = 0.0;
  double max_rate = 0.0;
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t workers = 0;
};

Pass measure(const Setup& setup, double seconds, std::uint64_t seed, Tracer& tracer) {
  Pass pass;
  Layers& layers = pass.layers;
  Sink sink;
  sink.setup = &setup;
  sink.tracer = &tracer;

  std::vector<DistrictConfig> configs(kDistricts);
  for (std::size_t d = 0; d < kDistricts; ++d) {
    const Kind& kind = setup.kinds[d % setup.kinds.size()];
    configs[d].name = kind.name + std::to_string(d);
    configs[d].model = std::make_shared<ModelBundle>(kind.profile, 1, kSerialEngine);
    configs[d].queue_capacity = kQueueCapacity;
    configs[d].max_batch = kMaxBatch;
  }
  // The bundle each district serves; a swapped-out bundle is harvested
  // (telemetry added, memory freed) as soon as no batch pins it, so the
  // number of resident models, and with it peak_rss_mb, is fixed.
  std::vector<std::shared_ptr<const ModelBundle>> current;
  for (const auto& config : configs) current.push_back(config.model);
  // The initial bundles wrap the set-up profiles and stay referenced by
  // the daemon's district configs; they are harvested at the end.
  std::vector<std::shared_ptr<const ModelBundle>> initial;
  auto harvest = [&](std::shared_ptr<const ModelBundle> bundle) {
    if (bundle->version() == 1) {
      initial.push_back(std::move(bundle));
      return;
    }
    while (bundle.use_count() > 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
    add_engine_telemetry(layers, bundle->engine().telemetry_snapshot());
    bundle.reset();
  };

  ServingDaemonOptions options;
  options.num_workers = kWorkers;
  ServingDaemon daemon(
      configs, options,
      [&sink](const ResultEvent& event, const InferenceResult& result) {
        sink.on_result(event, result);
      });
  pass.workers = kWorkers;

  std::vector<std::uint64_t> cursor(kDistricts, 0);
  auto submit = [&](std::size_t d, double due_s) {
    const Kind& kind = setup.kinds[d % setup.kinds.size()];
    daemon.submit(d, kind.pool[cursor[d]++ % kind.pool.size()], due_s);
  };

  // Hot swaps for the whole measurement. jthread joins on every exit path;
  // a failed load is counted, never thrown across the thread boundary.
  std::atomic<std::uint64_t> swap_errors{0};
  std::jthread publisher([&](std::stop_token stop) {
    std::uint64_t version = 2;
    const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(kSwapPeriodS));
    auto tick = std::chrono::steady_clock::now();
    for (std::size_t k = 0; !stop.stop_requested(); k = (k + 1) % setup.kinds.size()) {
      const Kind& kind = setup.kinds[k];
      try {
        bool used_mmap = false;
        const double t = now_seconds();
        const std::uint64_t load_span = tracer.begin("io.load_bundle");
        auto bundle = load_bundle(kind.artifact, version++, kSerialEngine, &used_mmap);
        tracer.end(load_span);
        const double loaded = now_seconds();
        // One loaded model serves every district of its kind, as a
        // deployment would share it; the old one goes once all have moved.
        std::vector<std::shared_ptr<const ModelBundle>> old;
        for (std::size_t d = k; d < kDistricts; d += setup.kinds.size()) {
          daemon.swap_model(d, bundle);
          old.push_back(std::exchange(current[d], bundle));
        }
        tracer.record("serving.swap", loaded, now_seconds());
        layers.io_load_bundle_s += loaded - t;
        layers.io_swaps += 1.0;
        layers.io_mmap_loads += used_mmap ? 1.0 : 0.0;
        layers.ml_compile_s += bundle->forest_report().seconds;
        std::sort(old.begin(), old.end());
        old.erase(std::unique(old.begin(), old.end()), old.end());
        for (auto& previous : old) harvest(std::move(previous));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "serve_mixed: hot swap failed: %s\n", error.what());
        swap_errors.fetch_add(1);
      }
      // Fixed start-to-start period; a load longer than it delays, never
      // bunches, the next one.
      tick = std::max(tick + period, std::chrono::steady_clock::now());
      std::this_thread::sleep_until(tick);
    }
  });

  const double start = now_seconds();
  std::vector<double> closed_rates;
  auto run_closed = [&](double closed_seconds) {
    const double closed_start = now_seconds();
    const std::uint64_t before = sink.completed.load();
    std::uint64_t sent = 0;
    std::uint64_t next_window = kClosedWindow;
    for (double window_start = closed_start; since(closed_start) < closed_seconds;) {
      // Spin rather than sleep: a wake-up on this side would add host
      // scheduling noise to every sample.
      std::uint64_t done = sink.completed.load(std::memory_order_acquire) - before;
      while (sent - done >= kClosedInFlight) {
        std::this_thread::yield();
        done = sink.completed.load(std::memory_order_acquire) - before;
      }
      if (done >= next_window) {
        const double now = now_seconds();
        closed_rates.push_back(static_cast<double>(kClosedWindow) / (now - window_start));
        window_start = now;
        next_window += kClosedWindow;
      }
      submit(sent % kDistricts, now_seconds());
      ++sent;
    }
    daemon.drain();
    pass.attempted += sent;
    sink.take();
  };

  auto run_rung = [&](double rate, double rung_seconds, std::uint64_t tag) {
    const Schedule schedule = make_schedule(rate, rung_seconds, derive_seed(seed, tag));
    // More queued work than kMaxBacklogS of arrivals means the rung is past
    // the limit already; stop offering so the backlog (and memory) stays
    // bounded.
    const auto backlog_limit = static_cast<std::uint64_t>(std::max(64.0, rate * kMaxBacklogS));
    const std::uint64_t before = sink.completed.load();
    const auto epoch = std::chrono::steady_clock::now();
    const double epoch_s = now_seconds();
    std::uint64_t sent = 0;
    bool overloaded = false;
    for (std::size_t i = 0; i < schedule.district.size() && !overloaded; ++i) {
      // Spin to the due time: a sleep's wake-up is late by the host's
      // scheduling latency, which would then be part of every sample.
      const auto due = epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(schedule.offset_s[i]));
      while (std::chrono::steady_clock::now() < due) {
        spin_pause();
      }
      submit(schedule.district[i], epoch_s + schedule.offset_s[i]);
      ++sent;
      overloaded = sent - (sink.completed.load() - before) > backlog_limit;
    }
    daemon.drain();
    pass.attempted += sent;
    RungResult rung = summarize(rate, sink.take(), epoch_s);
    rung.overloaded = overloaded;
    return rung;
  };

  // Closed loop and reference rate alternate over kRounds rounds, so both
  // sample the whole run rather than one stretch of it.
  RungResult reference;  // all rounds' reference samples, pooled
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  for (std::size_t round = 0; round < kRounds; ++round) {
    run_closed(kClosedShare * seconds / kRounds);
    const RungResult chunk =
        run_rung(kReferenceRate, kReferenceShare * seconds / kRounds, 40 + round);
    add_window_quantiles(chunk, 50.0, window_p50_ms);
    add_window_quantiles(chunk, 99.0, window_p99_ms);
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(reference.latency_ms, chunk.latency_ms);
    append(reference.queue_ms, chunk.queue_ms);
    append(reference.infer_ms, chunk.infer_ms);
    append(reference.late_ms, chunk.late_ms);
  }
  pass.closed_loop_rate = fast_rate(closed_rates);
  pass.ref_latency_ms = reference.latency_ms;
  pass.ref_p50_ms = fast_time(window_p50_ms);
  pass.ref_p99_ms = fast_time(window_p99_ms);

  std::vector<RungResult> ladder;
  const double rung_s = kLadderShare * seconds / static_cast<double>(kLadderRates.size());
  for (std::size_t k = 0; k < kLadderRates.size(); ++k) {
    ladder.push_back(run_rung(kLadderRates[k], rung_s, 100 + k));
    print_rung(ladder.back());
    if (ladder.back().fails()) break;
  }
  pass.max_rate = max_rate(ladder);
  std::vector<double> late_ms = reference.late_ms;
  for (const RungResult& rung : ladder) {
    late_ms.insert(late_ms.end(), rung.late_ms.begin(), rung.late_ms.end());
  }
  const double region_s = since(start);

  publisher.request_stop();
  publisher.join();
  daemon.drain();
  layers.trace_region_s = region_s;

  for (std::size_t d = 0; d < kDistricts; ++d) {
    const auto stats = daemon.district_telemetry(d);
    layers.serving_shed += static_cast<double>(stats.count(ServingDaemon::kCounterShed));
    layers.serving_mean_batch += static_cast<double>(stats.count(ServingDaemon::kCounterBatches));
    layers.trace_ops += static_cast<double>(stats.count(ServingDaemon::kCounterServed));
  }
  layers.serving_mean_batch = layers.trace_ops / std::max(1.0, layers.serving_mean_batch);
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());
  for (const auto* bundles : {&current, &initial}) {
    for (const auto& bundle : *bundles) {
      add_engine_telemetry(layers, bundle->engine().telemetry_snapshot());
    }
  }
  layers.serving_queue_p50_ms = quantile(reference.queue_ms, 50.0);
  layers.serving_queue_p99_ms = quantile(reference.queue_ms, 99.0);
  layers.serving_infer_p50_ms = quantile(reference.infer_ms, 50.0);
  layers.serving_gen_late_p99_ms = quantile(late_ms, 99.0);
  layers.fusion_snapshots = layers.trace_ops;
  const std::lock_guard<std::mutex> lock(sink.mutex);
  layers.fusion_changed = static_cast<double>(sink.fusion_changed);
  pass.attempted += static_cast<std::uint64_t>(layers.io_swaps) + swap_errors.load();
  pass.failed = sink.mismatches + static_cast<std::uint64_t>(layers.serving_shed) +
                swap_errors.load();
  return pass;
}

}  // namespace

Report run_serve_mixed(const Args& args, Tracer& tracer) {
  // Blocks of kMmapThreshold and more (a model's forest planes) get their
  // own mappings and return to the OS when freed, so a swapped-out model
  // leaves at once: peak_rss_mb does not depend on when the heap happens
  // to be reused, and no malloc_trim pause stalls the workers.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  std::filesystem::create_directories(args.out_dir);
  EndToEnd e2e;
  std::vector<double> train_s;
  const auto setup = repeated_setup(&e2e.setup_s, [&] {
    auto s = make_setup(args.seed, args.out_dir);
    train_s.push_back(s->train_s);
    return s;
  });
  e2e.train_s = fast_time(train_s);

  Report report;
  Pass pass;
  if (args.trace) {
    const Pass untraced = measure(*setup, args.seconds / 2, args.seed, tracer);
    tracer.set_enabled(true);
    pass = measure(*setup, args.seconds / 2, args.seed, tracer);
    tracer.set_enabled(false);
    pass.layers.trace_overhead_frac =
        median(pass.ref_latency_ms) / median(untraced.ref_latency_ms) - 1.0;
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
  } else {
    pass = measure(*setup, args.seconds, args.seed, tracer);
  }
  report.attempted += pass.attempted;
  report.failed += pass.failed;
  report.provenance.emplace_back("daemon_workers", std::to_string(pass.workers));

  std::vector<double> scores;
  for (const Kind& kind : setup->kinds) {
    scores.insert(scores.end(), kind.hamming.begin(), kind.hamming.end());
    pass.layers.io_artifact_bytes += static_cast<double>(std::filesystem::file_size(kind.artifact));
    pass.layers.ml_labels += static_cast<double>(kind.profile->model.num_labels());
    pass.layers.ml_trees +=
        static_cast<double>(kind.profile->model.forest_compile_report().trees);
    std::filesystem::remove(kind.artifact);
  }
  pass.layers.hamming = bootstrap_mean_ci(scores, derive_seed(args.seed, 99));
  pass.layers.networks_build_s = setup->network_build_s;
  pass.layers.serving_max_rate_per_s = pass.max_rate;

  e2e.localize_p50_ms = pass.ref_p50_ms;
  e2e.localize_p99_ms = pass.ref_p99_ms;
  e2e.localize_per_s = pass.closed_loop_rate;
  e2e.hamming = pass.layers.hamming.mean;
  finish_report(report, e2e, pass.layers, tracer);
  return report;
}

}  // namespace aquabench
