#include "report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"request_cpu_s", "s"},
      {"region_jaccard", "frac"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"geo.generate_busy_s", "s"},
      {"tile.factor_busy_s", "s"},
      {"tile.factor_gflops_computed", "GFLOP/s"},
      {"linalg.update_busy_s", "s"},
      {"tlr.compress_busy_s", "s"},
      {"tlr.factor_busy_s", "s"},
      {"vecchia.fit_busy_s", "s"},
      {"stats.qmc_busy_s", "s"},
      {"stats.qmc_entries_per_s", "1/s"},
      {"ep.screens", "count"},
      {"ep.screen_ms_p50", "ms"},
      {"engine.factor_s", "s"},
      {"engine.evaluate_s", "s"},
      {"engine.samples_per_query", "count"},
      {"engine.ep_retired_frac", "frac"},
      {"engine.cache_hit_frac", "frac"},
      {"core.host_s", "s"},
      {"runtime.tasks", "count"},
      {"runtime.steal_frac", "frac"},
      {"runtime.busy_frac", "frac"},
      {"runtime.parallel_eff", "frac"},
      {"serve.wait_ms_p50", "ms"},
      {"serve.wait_ms_p90", "ms"},
      {"serve.engine_ms_p50", "ms"},
      {"serve.mean_batch", "count"},
      {"serve.degraded_frac", "frac"},
      {"serve.max_queue_depth", "count"},
      {"serve.latency_p99_ms", "ms"},
      {"span.core_self_s", "s"},
      {"span.engine_self_s", "s"},
      {"span.ep_self_s", "s"},
      {"span.serve_self_s", "s"},
      {"bench.trace_overhead_frac", "frac"},
      {"wall.crd_p50_s", "s"},
      {"wall.latency_p50_ms", "ms"},
      {"wall.latency_p90_ms", "ms"},
      {"wall.requests_per_s", "1/s"},
  };
  return defs;
}

void RunOutput::add(const std::string& name, double value) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) {
        metrics.push_back({name, value, d.unit});
        return;
      }
    }
  }
  throw std::logic_error("uncatalogued metric " + name);
}

void RunOutput::add_zeros(const std::vector<std::string>& names) {
  for (const std::string& name : names) add(name, 0.0);
}

void Checks::expect(bool ok, const std::string& name,
                    const std::string& detail) {
  if (std::find(names_.begin(), names_.end(), name) == names_.end())
    names_.push_back(name);
  if (!ok) failures_.push_back(detail.empty() ? name : name + ": " + detail);
}

void RunOutput::fact(const std::string& name, double value) {
  facts.emplace_back(name, json_number(value));
}

void RunOutput::fact(const std::string& name, const std::string& text) {
  facts.emplace_back(name, json_string(text));
}

void RunOutput::fact(const std::string& name,
                     const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    list += (i > 0 ? ", " : "") + json_number(values[i]);
  facts.emplace_back(name, list + "]");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
