// aquabench: the repository benchmark (see BENCHMARK.json at the root).
//
//   aquabench --workload <train_epa|serve_mixed|enumerate_epa> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   train_epa      Phase I on EPA-NET: replayed corpus -> dataset -> HybridRSL
//                  fit -> saved artifact, then Phase II on a held-out set.
//   serve_mixed    Phase II through serving::ServingDaemon: four districts,
//                  open-loop seeded arrivals at fixed offered rates, hot swaps.
//   enumerate_epa  Physics-based localization: EnumerationLocalizer with
//                  screening over fixed noisy EPA-NET events.
//
// Every workload reports the same end-to-end metrics, each read as "the
// workload's localizer" (a freshly trained profile, the daemon, or the
// enumeration search). Timings report the fast side of many samples spread
// over the run (see fast_time in bench.hpp):
//   setup_s          median of repeated set-ups (network, corpus, held-out
//                    events; for serve_mixed also the district profiles)
//   train_s          Phase I: k-medoids placement, then corpus -> dataset ->
//                    fit -> saved artifact (train_epa per trial; serve_mixed
//                    its two district profiles, inside set-up); for the
//                    enumeration localizer, which learns nothing, placement
//                    plus building the localizer
//   localize_p50_ms  per-event latency: InferenceEngine::infer on a serial
//   localize_p99_ms  engine over the trained profile (train_epa) or one
//                    localize() call (enumerate_epa), percentiles over the
//                    events of each event's fastest repeat; from the due
//                    time at the reference offered rate (serve_mixed,
//                    percentiles per one-second window)
//   localize_per_s   events localized per second: with one event in flight
//                    (train_epa, enumerate_epa: over the mean of those
//                    per-event times); the daemon's closed-loop throughput
//                    with 64 requests in flight (serve_mixed)
//   hamming          mean ml::hamming_score of the localized sets (per seed
//                    deterministic; sample count and bootstrap CI in the trace)
//   peak_rss_mb      getrusage peak resident memory
// serve_mixed's highest offered rate whose p99 meets the latency limit is
// the per-layer serving.max_rate_per_s, which has no regression bound: it
// follows the capacity of all four shared cores, and its interquartile
// spread over ten runs exceeded the widest bound (0.25) the benchmark may
// set.
// Failures (shed requests, thrown solver errors, correctness-gate
// mismatches) are the result's "failed" count out of "attempted".
//
// The last stdout line is the JSON result; a correctness-gate failure
// prints it with "correct": false and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"

#ifndef AQUABENCH_BUILD_TYPE
#define AQUABENCH_BUILD_TYPE "unknown"
#endif

using namespace aquabench;

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "aquabench: %s\nusage: aquabench --workload <train_epa|serve_mixed|enumerate_epa> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--git-sha") {
        args.git_sha = value;
      } else if (key == "--git-dirty") {
        args.git_dirty = std::stoi(value);
      } else if (key == "--source-digest") {
        args.source_digest = value;
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return args;
}

std::string provenance_json(const Args& args, const Report& report) {
  std::string json = "{\"git_sha\": \"" + args.git_sha +
                     "\", \"git_dirty\": " + std::to_string(args.git_dirty) +
                     ", \"source_digest\": \"" + args.source_digest +
                     "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_threads\": " + std::to_string(aqua::ThreadPool::global().size()) +
                     ", \"build_type\": \"" AQUABENCH_BUILD_TYPE "\", \"workload\": \"" +
                     args.workload + "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + std::to_string(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [key, value] : report.provenance) json += ", \"" + key + "\": " + value;
  return json + "}";
}

std::string result_json(const Report& report, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  char buffer[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value already failed the run; keep the line valid JSON.
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Tracer tracer;
  Report report;
  try {
    if (args.workload == "train_epa") {
      report = run_train_epa(args, tracer);
    } else if (args.workload == "serve_mixed") {
      report = run_serve_mixed(args, tracer);
    } else if (args.workload == "enumerate_epa") {
      report = run_enumerate_epa(args, tracer);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "aquabench: %s failed: %s\n", args.workload.c_str(), error.what());
    return 1;
  }

  const std::vector<Metric>& metrics = args.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "aquabench: metric %s is not finite\n", m.name.c_str());
      report.correct = false;
    }
  }

  const std::string provenance = provenance_json(args, report);
  const std::string result = result_json(report, metrics);
  std::printf("provenance %s\n", provenance.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  hamming %.4f over %zu events, bootstrap 95%% CI [%.4f, %.4f]\n",
              report.hamming.mean, report.hamming.samples, report.hamming.lo, report.hamming.hi);

  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  if (args.trace) tracer.write(stem + ".trace.json", provenance);
  if (std::FILE* file = std::fopen((stem + ".result.json").c_str(), "w")) {
    std::fprintf(file, "{\"provenance\": %s,\n\"result\": %s}\n", provenance.c_str(),
                 result.c_str());
    std::fclose(file);
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  if (!report.correct) {
    std::fprintf(stderr, "aquabench: correctness gate failed (%llu of %llu operations)\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
    return 1;
  }
  return 0;
}
