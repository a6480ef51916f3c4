// Shared helpers for the figure-reproduction benches: an environment-
// driven scale factor (AQUA_SCALE, default 1.0) so the suite can be run at
// paper scale on bigger machines, consistent banner printing, a
// machine-readable JSON report so the perf trajectory is tracked across
// changes, and the correctness gates that decide a bench's exit status.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace aqua::bench {

/// Multiplier applied to scenario counts; from the AQUA_SCALE env var.
inline double scale_factor() {
  const char* env = std::getenv("AQUA_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0.0 ? value : 1.0;
}

inline std::size_t scaled(std::size_t base) {
  return std::max<std::size_t>(16, static_cast<std::size_t>(base * scale_factor()));
}

inline void banner(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("(scenario counts scaled by AQUA_SCALE=%.2f; paper used 20,000/2,000)\n",
              scale_factor());
  std::printf("==============================================================\n");
}

/// A bench's correctness gates (bit-identity, replay ≡ full run, ...).
/// Every check() that fails is named on stderr and counted, and main
/// returns exit_status(), so scripts/run_benches.sh fails on a broken
/// gate instead of only recording it in the JSON.
class Gates {
 public:
  /// Records one gate; returns `passed`.
  bool check(bool passed, const std::string& what) {
    if (!passed) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
      ++failures_;
    }
    return passed;
  }

  std::size_t failures() const noexcept { return failures_; }
  int exit_status() const noexcept { return failures_ == 0 ? 0 : 1; }

 private:
  std::size_t failures_ = 0;
};

/// Ordered (metric, value) pairs for json_report.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Writes BENCH_<name>.json in the working directory: one flat object
/// with the bench name, AQUA_SCALE, and every metric. Flat keys (e.g.
/// "wssc_subnet.cholesky_solves_per_s") keep the file trivially
/// diffable/greppable across PRs. Returns whether the file was written
/// and closed without error; every bench folds that into its exit status,
/// so a report that could not be written fails the bench instead of
/// leaving an older report in place.
[[nodiscard]] inline bool json_report(const std::string& name, const Metrics& metrics) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "json_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"aqua_scale\": %g", name.c_str(),
               scale_factor());
  for (const auto& [key, value] : metrics) {
    std::fprintf(file, ",\n  \"%s\": %.9g", key.c_str(), value);
  }
  std::fprintf(file, "\n}\n");
  const bool written = std::ferror(file) == 0;
  if (std::fclose(file) != 0 || !written) {
    std::fprintf(stderr, "json_report: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
  return true;
}

}  // namespace aqua::bench
