// Pipeline benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--git-sha <sha>]
//   perfbench --smoke [--out <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run (and writes one merged Chrome/Perfetto trace file). The
// last line of standard output is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and a full result file (metrics, checks, facts, build and host facts)
// lands in --out. Any failed correctness check makes the exit code 1.
// --smoke runs every workload at reduced size in both modes with all checks.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using WorkloadFn = void (*)(const RunConfig&, RunOutput&, TraceCapture&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"wind_dense_cold", run_wind_dense_cold},
    {"wind_tlr_cold", run_wind_tlr_cold},
    {"wind_vecchia_ladder", run_wind_vecchia_ladder},
    {"serve_ladder_closed", run_serve_ladder_closed},
};

struct BuildInfo {
  std::string git_sha = "unknown";
};

std::string isa() {
  std::string s;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto add = [&](bool has, const char* name) {
    if (!has) return;
    if (!s.empty()) s += ',';
    s += name;
  };
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
#elif defined(__aarch64__)
  s = "aarch64";
#endif
  return s.empty() ? "generic" : s;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(metrics[i].name) + ": {\"value\": " +
         json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return s + "}";
}

std::string string_list(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    s += (i > 0 ? ", " : "") + json_string(items[i]);
  return s + "]";
}

/// Every catalogued metric of the mode, exactly once and nothing else.
bool catalogue_complete(const RunOutput& out, bool trace,
                        std::string& missing) {
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  bool ok = out.metrics.size() == defs.size();
  for (const MetricDef& d : defs) {
    int seen = 0;
    for (const Metric& m : out.metrics) seen += m.name == d.name ? 1 : 0;
    if (seen != 1) {
      ok = false;
      missing += std::string(missing.empty() ? "" : ",") + d.name;
    }
  }
  return ok;
}

std::string result_stem(const RunConfig& cfg) {
  return cfg.out_dir + "/" + cfg.workload + "-seed" +
         std::to_string(cfg.seed) + (cfg.trace ? "-trace" : "");
}

void write_result_file(const RunConfig& cfg, const BuildInfo& build,
                       const RunOutput& out, bool correct,
                       const std::string& trace_path) {
  std::ofstream f(result_stem(cfg) + ".json");
  f << "{\n  \"workload\": " << json_string(cfg.workload)
    << ",\n  \"seed\": " << cfg.seed
    << ",\n  \"seconds\": " << json_number(cfg.seconds)
    << ",\n  \"trace\": " << (cfg.trace ? "true" : "false")
    << ",\n  \"smoke\": " << (cfg.smoke ? "true" : "false")
    << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
    << ",\n  \"workers\": " << cfg.workers
    << ",\n  \"isa\": " << json_string(isa())
    << ",\n  \"kernel_native\": " << (PERFBENCH_KERNEL_NATIVE ? "true" : "false")
    << ",\n  \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ",\n  \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ",\n  \"git_sha\": " << json_string(build.git_sha)
    << ",\n  \"correct\": " << (correct ? "true" : "false")
    << ",\n  \"attempted\": " << out.attempted
    << ",\n  \"failed\": " << out.failed
    << ",\n  \"checks\": " << string_list(out.checks.names())
    << ",\n  \"check_failures\": " << string_list(out.checks.failures())
    << ",\n  \"trace_file\": " << json_string(trace_path)
    << ",\n  \"metrics\": " << metrics_json(out.metrics) << ",\n  \"facts\": {";
  for (std::size_t i = 0; i < out.facts.size(); ++i)
    f << (i > 0 ? ", " : "") << json_string(out.facts[i].first) << ": "
      << out.facts[i].second;
  f << "}\n}\n";
}

/// Run one workload in one mode; prints the human-readable lines and
/// returns the result line. `correct` receives the verdict.
std::string run_one(const Workload& w, const RunConfig& cfg,
                    const BuildInfo& build, bool& correct) {
  RunOutput out;
  TraceCapture trace;
  std::string error;
  try {
    w.run(cfg, out, trace);
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::string missing;
  if (error.empty() && !catalogue_complete(out, cfg.trace, missing))
    error = "metric catalogue mismatch: " + missing;
  if (!error.empty()) out.checks.expect(false, "workload_completed", error);
  correct = out.checks.all_ok();

  std::string trace_path;
  if (cfg.trace && error.empty()) {
    trace_path = result_stem(cfg) + ".perfetto.json";
    trace.spans.write_chrome(trace_path, trace.tasks);
  }
  write_result_file(cfg, build, out, correct, trace_path);

  std::printf("# workload %s seed %llu workers %d trace %d\n", w.name,
              static_cast<unsigned long long>(cfg.seed), cfg.workers,
              cfg.trace ? 1 : 0);
  for (const Metric& m : out.metrics)
    std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("# checks: %zu run, %zu failures", out.checks.names().size(),
              out.checks.failures().size());
  for (const std::string& f : out.checks.failures())
    std::printf("\n# CHECK FAILED: %s", f.c_str());
  std::printf("\n");
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) +
         ", \"metrics\": " + metrics_json(out.metrics) + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n"
               "       perfbench --smoke [--out <dir>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  RunConfig cfg;
  BuildInfo build;
  cfg.workers = parmvn::default_num_threads();
  cfg.out_dir = ".bench_build/results";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--git-sha") {
      build.git_sha = value();
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::filesystem::create_directories(cfg.out_dir);

  if (cfg.smoke) {
    // Every workload at reduced size, end-to-end and traced, checks on.
    bool all = true;
    cfg.seconds = 0.3;
    for (const Workload& w : kWorkloads) {
      for (const bool trace : {false, true}) {
        cfg.workload = w.name;
        cfg.trace = trace;
        bool correct = false;
        std::printf("%s\n", run_one(w, cfg, build, correct).c_str());
        all = all && correct;
      }
    }
    std::printf("# smoke %s\n", all ? "passed" : "FAILED");
    return all ? 0 : 1;
  }

  if (!have_workload) return usage("--workload is required");
  for (const Workload& w : kWorkloads) {
    if (cfg.workload != w.name) continue;
    bool correct = false;
    const std::string line = run_one(w, cfg, build, correct);
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
  }
  return usage(("unknown workload " + cfg.workload).c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
