// enumerate_epa: physics-based localization, the model-based localizer
// family (calibrated-simulator enumeration). EnumerationLocalizer::localize
// runs over a fixed list of noisy EPA-NET leak events with screening on,
// so both the blocked multi-RHS probe and the per-hypothesis GGA solves
// run. The loop is closed with one event in flight, localized on a worker
// of the global pool, where the localizer's own fan-out runs inline: each
// event's hypothesis solves run one after another on one core. Fanned out
// over all four shared cores, every greedy round waited for the slowest of
// four threads, and the per-event times followed the host's load.
//
// hydraulics and linalg do nearly all the work, solving from cold states
// rather than from the replay checkpoint train_epa uses; ml is absent.
// EPA-NET is used because its hydraulic states are feasible, so the
// hamming gate is meaningful.
#include <cstdio>
#include <exception>
#include <memory>

#include "bench.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/enumeration.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "ml/metrics.hpp"
#include "networks/builtin.hpp"

namespace aquabench {
namespace {

using namespace aqua;
using namespace aqua::core;

constexpr std::size_t kEvents = 1024;
constexpr std::size_t kMinCycles = 4;  // timed passes over the event list
constexpr std::size_t kSlotSeconds = 900;
constexpr std::size_t kWindowEvents = 32;

EnumerationConfig localizer_config() {
  EnumerationConfig config;
  config.candidate_ecs = {0.003, 0.007};
  config.max_leaks = 3;
  config.screen_top_k = 16;
  return config;
}

struct Event {
  std::vector<double> observed;  // sensor deltas, no time feature
  std::size_t before_period = 0;
  std::size_t after_period = 0;
  ml::Labels truth;
};

struct Setup {
  hydraulics::Network network;
  sensing::SensorSet sensors;
  std::vector<Event> events;
  std::unique_ptr<EnumerationLocalizer> localizer;
  double network_build_s = 0.0;
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const double build_start = now_seconds();
  s->network = networks::make_epa_net();
  s->network_build_s = since(build_start);

  Tracer untraced;
  s->sensors = place_sensors(s->network, untraced);

  ScenarioConfig config;
  config.max_events = 2;
  config.seed = derive_seed(seed, 1);
  ScenarioGenerator generator(s->network, config);
  const auto scenarios = generator.generate(kEvents);
  const std::vector<std::size_t> elapsed = {1};
  const SnapshotBatch batch(s->network, scenarios, elapsed);
  const sensing::NoiseModel noise;
  Rng root(derive_seed(seed, 4));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Rng rng = root.split();
    Event event;
    event.observed = batch.features(i, s->sensors, 0, noise, rng, false);
    event.before_period = (scenarios[i].leak_slot - 1) * kSlotSeconds / 3600;
    event.after_period = (scenarios[i].leak_slot + elapsed[0]) * kSlotSeconds / 3600;
    event.truth = scenarios[i].truth;
    s->events.push_back(std::move(event));
  }
  s->localizer = std::make_unique<EnumerationLocalizer>(s->network, s->sensors,
                                                        localizer_config());
  return s;
}

struct Pass {
  std::vector<std::vector<double>> localize_ms;  // per event, one per cycle
  std::vector<double> phase_one_s;
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The enumeration localizer learns nothing, so its Phase I is sensor
/// placement plus building the localizer.
void phase_one(const Setup& s, Tracer& tracer, Pass& pass) {
  const double t = now_seconds();
  const Span span(tracer, "bench.phase_one");
  const auto sensors = place_sensors(s.network, tracer, span.id(), &pass.layers);
  const EnumerationLocalizer localizer(s.network, sensors, localizer_config());
  pass.phase_one_s.push_back(since(t));
  ++pass.attempted;
  if (!same_sensors(sensors, s.sensors)) ++pass.failed;
}

/// Closed loop cycling over the event list, in windows of
/// kWindowEvents until `seconds` have passed (at least kMinCycles cycles),
/// with one Phase I after each window so both sample the whole run. Every
/// outcome must equal the reference. The whole pass is one task on a pool
/// worker.
Pass measure(const Setup& s, const std::vector<EnumerationOutcome>& reference, double seconds,
             Tracer& tracer) {
  Pass pass;
  pass.localize_ms.resize(s.events.size());
  Layers& layers = pass.layers;
  ThreadPool::global().submit([&] {
    const double start = now_seconds();
    for (std::size_t k = 0; k < kMinCycles * s.events.size() || since(start) < seconds;) {
      {
        const Span window_span(tracer, "bench.enumerate");
        for (const std::size_t end = k + kWindowEvents; k < end; ++k) {
          const std::size_t i = k % s.events.size();
          const Event& event = s.events[i];
          ++pass.attempted;
          try {
            const double t = now_seconds();
            EnumerationOutcome outcome;
            {
              const Span span(tracer, "enumeration.localize", window_span.id(), i + 1);
              outcome = s.localizer->localize(event.observed, event.before_period,
                                              event.after_period);
            }
            const double elapsed = since(t);
            pass.localize_ms[i].push_back(1e3 * elapsed);
            layers.enumeration_localize_s += elapsed;
            layers.enumeration_events += 1.0;
            layers.enumeration_solves += static_cast<double>(outcome.hydraulic_solves);
            layers.enumeration_screened_labels += static_cast<double>(outcome.screened_labels);
            if (outcome.predicted != reference[i].predicted ||
                outcome.hydraulic_solves != reference[i].hydraulic_solves) {
              ++pass.failed;
            }
          } catch (const std::exception& error) {
            std::fprintf(stderr, "enumerate_epa: event %zu threw: %s\n", i, error.what());
            ++pass.failed;
          }
        }
      }
      phase_one(s, tracer, pass);
    }
    layers.trace_region_s = since(start);
  }).get();
  layers.trace_ops = layers.enumeration_events;
  return pass;
}

}  // namespace

Report run_enumerate_epa(const Args& args, Tracer& tracer) {
  EndToEnd e2e;
  const auto setup = repeated_setup(&e2e.setup_s, [&] { return make_setup(args.seed); });

  // Untimed reference pass: the outcomes every timed call must reproduce.
  std::vector<EnumerationOutcome> reference;
  std::vector<double> scores;
  for (const Event& event : setup->events) {
    reference.push_back(
        setup->localizer->localize(event.observed, event.before_period, event.after_period));
    scores.push_back(ml::hamming_score(reference.back().predicted, event.truth));
  }

  Report report;
  Pass pass;
  if (args.trace) {
    const Pass untraced = measure(*setup, reference, args.seconds / 2, tracer);
    tracer.set_enabled(true);
    pass = measure(*setup, reference, args.seconds / 2, tracer);
    tracer.set_enabled(false);
    pass.layers.trace_overhead_frac =
        median(quiet_times(pass.localize_ms)) / median(quiet_times(untraced.localize_ms)) - 1.0;
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
  } else {
    pass = measure(*setup, reference, args.seconds, tracer);
  }
  report.attempted += pass.attempted;
  report.failed += pass.failed;

  pass.layers.hamming = bootstrap_mean_ci(scores, derive_seed(args.seed, 99));
  pass.layers.networks_build_s = setup->network_build_s;
  // Gate: the baseline must actually localize.
  ++report.attempted;
  if (!(pass.layers.hamming.mean > 0.0)) {
    std::fprintf(stderr, "enumerate_epa: hamming is 0, the baseline does not localize\n");
    ++report.failed;
  }

  // Percentiles over the events' quiet times (kEvents events: ten beyond
  // p99); events per second with one in flight from their mean.
  const std::vector<double> quiet_ms = quiet_times(pass.localize_ms);
  e2e.localize_p50_ms = quantile(quiet_ms, 50.0);
  e2e.localize_p99_ms = quantile(quiet_ms, 99.0);
  e2e.localize_per_s = 1e3 / aqua::mean(quiet_ms);
  e2e.train_s = fast_time(pass.phase_one_s);
  e2e.hamming = pass.layers.hamming.mean;
  finish_report(report, e2e, pass.layers, tracer);
  return report;
}

}  // namespace aquabench
