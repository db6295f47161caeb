// Metric, check and run-record vocabulary shared by the workloads, plus the
// small statistics helpers every workload uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Options of one benchmark invocation (see main.cpp for the flags).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of each timed phase
  bool trace = false;     // per-layer traced run instead of end-to-end
  bool smoke = false;     // reduced sizes, checks on, short phases
  int workers = 1;        // runtime workers: nproc (PARMVN_NUM_THREADS)
  std::string out_dir;    // result + trace files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's metric catalogue (name, unit), in report order. Every
/// end-to-end run reports exactly the first list, every traced run exactly
/// the second; BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Named correctness checks; the run fails if any of them fails.
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail = {});
  [[nodiscard]] bool all_ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> names_;     // every check run, once each
  std::vector<std::string> failures_;  // "name: detail" per failure
};

/// Everything one workload run produces.
struct RunOutput {
  std::vector<Metric> metrics;  // end-to-end (trace off) or per-layer
  Checks checks;
  std::int64_t attempted = 0;   // operations attempted in the timed phases
  std::int64_t failed = 0;      // operations that failed or were refused
  /// Free-form facts for the result file (sizes, counts, diagnostics):
  /// pre-rendered JSON values keyed by name.
  std::vector<std::pair<std::string, std::string>> facts;

  /// Record a catalogued metric (its unit comes from the catalogue; an
  /// unknown name throws).
  void add(const std::string& name, double value);
  /// Record each named per-layer metric as 0: layers the workload does not
  /// exercise.
  void add_zeros(const std::vector<std::string>& names);
  void fact(const std::string& name, double value);
  void fact(const std::string& name, const std::string& text);
  void fact(const std::string& name, const std::vector<double>& values);
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// CPU time of this process, all threads, in seconds. Unlike a wall time it
/// does not count the time the process waits for a processor, so it stays
/// steady when other programs share the machine.
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// JSON string literal (quoted, escaped).
[[nodiscard]] std::string json_string(const std::string& s);
/// Shortest round-trip decimal form of a finite double ("null" otherwise).
[[nodiscard]] std::string json_number(double v);

/// Deterministic 64-bit mix (splitmix64) for deriving stream seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
