// Cold confidence-region detection on the wind field: the dense baseline
// (wind_dense_cold), the TLR arm (wind_tlr_cold) and the Vecchia threshold
// ladder (wind_vecchia_ladder). Every detection builds a fresh factor (no
// FactorCache), so each timed call runs the whole pipeline: covariance
// generation, factorization, EP screen (tiered arm only), QMC sweep and the
// confidence envelope.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "common/timer.hpp"
#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "ep/ep_screen.hpp"
#include "runtime/runtime.hpp"
#include "wind.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace parmvn;

constexpr double kAlpha = 0.05;
// The references sweep their larger sample budget in narrower panels (the
// result is bitwise the same), so they stay light on memory.
constexpr i64 kReferencePanelBytes = i64{64} << 20;

struct CrdWorkload {
  i64 nx = 0;
  i64 ny = 0;
  core::CrdOptions opts;           // the measured arm
  core::CrdOptions reference;      // region reference, computed once a run
  std::vector<double> thresholds;  // m/s
  bool tiered_check = false;       // also run untiered: the no-flip contract
};

core::CrdOptions base_options(core::CrdMode mode, i64 tile,
                              i64 samples_per_shift) {
  core::CrdOptions o;
  o.mode = mode;
  o.tile = tile;
  o.alpha = kAlpha;
  o.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  o.pmvn.samples_per_shift = samples_per_shift;
  o.pmvn.shifts = 10;
  return o;
}

// Fixed-budget 200x10 single-threshold query at u = 4 m/s on one arm; the
// reference is the dense arm at 5x the budget.
CrdWorkload single_threshold(core::CrdMode mode, i64 nx, i64 ny, i64 tile) {
  CrdWorkload w;
  w.nx = nx;
  w.ny = ny;
  w.opts = base_options(mode, tile, 200);
  w.opts.tlr_tol = 1e-3;
  w.reference = base_options(core::CrdMode::kDense, tile, 1000);
  w.reference.pmvn.panel_bytes = kReferencePanelBytes;
  w.thresholds = {4.0};
  return w;
}

CrdWorkload vecchia_ladder(i64 side, i64 tile) {
  CrdWorkload w;
  w.nx = side;
  w.ny = side;
  w.opts = base_options(core::CrdMode::kVecchia, tile, 100);
  w.opts.vecchia_m = 30;
  w.opts.pmvn.adaptive = true;
  w.opts.pmvn.tiered = true;
  w.reference = w.opts;
  w.reference.pmvn.tiered = false;
  w.reference.pmvn.samples_per_shift *= 4;
  w.reference.pmvn.panel_bytes = kReferencePanelBytes;
  for (int u = 2; u <= 9; ++u) w.thresholds.push_back(u);
  w.tiered_check = true;
  return w;
}

std::vector<core::CrdQuery> make_queries(const CrdWorkload& w, u64 seed) {
  std::vector<core::CrdQuery> queries;
  for (std::size_t k = 0; k < w.thresholds.size(); ++k) {
    core::CrdQuery q;
    q.threshold = w.thresholds[k];
    q.alpha = kAlpha;
    q.seed = mix_seed(seed, k);
    queries.push_back(q);
  }
  return queries;
}

struct Detection {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads
  std::vector<core::CrdResult> results;
};

Detection detect(rt::Runtime& rt, const WindField& field,
                 const core::CrdOptions& opts,
                 const std::vector<core::CrdQuery>& queries, SpanLog& spans,
                 i64 request) {
  const ScopedSpan span(spans, "core", "detect_confidence_regions", request);
  Detection d;
  const WallTimer timer;
  const double cpu0 = process_cpu_s();
  d.results =
      core::detect_confidence_regions(rt, *field.cov, field.mean, opts, queries);
  d.wall_s = timer.seconds();
  d.cpu_s = process_cpu_s() - cpu0;
  return d;
}

bool same_regions(const Detection& a, const Detection& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t q = 0; q < a.results.size(); ++q)
    if (a.results[q].region != b.results[q].region) return false;
  return true;
}

/// Region overlap with the reference, pooled over the queries: the sum of
/// |A & B| over the sum of |A | B| (the Jaccard index; 1 when both are
/// empty).
double region_jaccard(const Detection& got, const Detection& ref) {
  i64 both = 0;
  i64 either = 0;
  for (std::size_t q = 0; q < got.results.size(); ++q) {
    const auto& a = got.results[q].region;
    const auto& b = ref.results[q].region;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      both += a[i] != 0 && b[i] != 0 ? 1 : 0;
      either += a[i] != 0 || b[i] != 0 ? 1 : 0;
    }
  }
  return either > 0 ? static_cast<double>(both) / static_cast<double>(either)
                    : 1.0;
}

double mismatch_frac(const Detection& got, const Detection& ref, i64 n) {
  i64 differ = 0;
  for (std::size_t q = 0; q < got.results.size(); ++q) {
    const auto& a = got.results[q].region;
    const auto& b = ref.results[q].region;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
      differ += a[i] != b[i] ? 1 : 0;
  }
  return static_cast<double>(differ) /
         static_cast<double>(n * static_cast<i64>(got.results.size()));
}

/// Every query succeeded and its confidence envelope is non-increasing
/// along the marginal ordering. Returns whether every query succeeded.
bool check_results(const Detection& d, Checks& checks) {
  bool ok = true;
  for (const core::CrdResult& r : d.results) {
    ok = ok && r.status.ok();
    checks.expect(r.status.ok(), "detection_status_ok", r.status.message);
    if (!r.status.ok()) continue;
    bool monotone = true;
    for (std::size_t k = 1; k < r.order.size(); ++k) {
      monotone =
          monotone && r.confidence[static_cast<std::size_t>(r.order[k])] <=
                          r.confidence[static_cast<std::size_t>(r.order[k - 1])];
    }
    checks.expect(monotone, "confidence_monotone_along_order");
  }
  return ok;
}

struct Prepared {
  std::unique_ptr<rt::Runtime> rt;
  WindField field;
  std::vector<core::CrdQuery> queries;
  Detection first;  // the warm-up detection, baseline for repetitions
};

/// Set-up: runtime, field and the warm-up detection.
Prepared set_up(const CrdWorkload& w, const RunConfig& cfg, SpanLog& spans) {
  Prepared p;
  p.rt = std::make_unique<rt::Runtime>(cfg.workers);
  {
    const ScopedSpan span(spans, "geo", "make_wind_field");
    p.field = make_wind_field(w.nx, w.ny);
  }
  p.queries = make_queries(w, cfg.seed);
  p.first = detect(*p.rt, p.field, w.opts, p.queries, spans, -1);
  return p;
}

/// The no-flip contract of the tiered arm: EP screening only skips QMC
/// work, so the untiered run must detect bitwise the same regions.
void check_tiered(const CrdWorkload& w, const Prepared& p, SpanLog& spans,
                  Checks& checks) {
  if (!w.tiered_check) return;
  core::CrdOptions untiered = w.opts;
  untiered.pmvn.tiered = false;
  const Detection plain = detect(*p.rt, p.field, untiered, p.queries, spans, -1);
  checks.expect(same_regions(plain, p.first), "tiered_regions_equal_untiered");
}

/// Detect repeatedly for `seconds` (at least once). With a `speed`, a
/// calibration follows every detection.
std::vector<Detection> timed_phase(rt::Runtime& rt, const Prepared& p,
                                   const CrdWorkload& w, double seconds,
                                   HostSpeed* speed, SpanLog& spans,
                                   RunOutput& out) {
  std::vector<Detection> runs;
  const WallTimer phase;
  while (runs.empty() || phase.seconds() < seconds) {
    Detection d = detect(rt, p.field, w.opts, p.queries, spans,
                         static_cast<i64>(runs.size()));
    if (speed != nullptr) speed->calibrate();
    ++out.attempted;
    if (!check_results(d, out.checks)) ++out.failed;
    out.checks.expect(same_regions(d, p.first),
                      "region_identical_across_repetitions");
    runs.push_back(std::move(d));
  }
  return runs;
}

std::vector<double> walls_of(const std::vector<Detection>& runs) {
  std::vector<double> walls;
  for (const Detection& d : runs) walls.push_back(d.wall_s);
  return walls;
}

double sum_task_seconds(const std::vector<rt::TaskRecord>& tasks,
                        std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const rt::TaskRecord& r : tasks)
    for (const char* name : names)
      if (r.name == name) total += r.end_s - r.start_s;
  return total;
}

/// Time ep::EpScreener::screen on the workload's own factor and limits
/// (one screen per threshold); returns the per-screen times in ms.
std::vector<double> time_ep_screens(rt::Runtime& rt, const CrdWorkload& w,
                                    const Prepared& p, SpanLog& spans) {
  const ScopedSpan root(spans, "bench", "ep_screen_timing");
  const core::CrdResult& r0 = p.first.results.front();
  engine::FactorSpec spec;
  spec.kind = w.opts.mode == core::CrdMode::kDense ? engine::FactorKind::kDense
              : w.opts.mode == core::CrdMode::kTlr ? engine::FactorKind::kTlr
                                                   : engine::FactorKind::kVecchia;
  spec.tile = w.opts.tile;
  spec.tlr_tol = w.opts.tlr_tol;
  spec.tlr_max_rank = w.opts.tlr_max_rank;
  spec.vecchia_m = w.opts.vecchia_m;
  const std::vector<double> sd = engine::standard_deviations(*p.field.cov);
  const engine::CholeskyFactor factor = [&] {
    const ScopedSpan span(spans, "engine", "CholeskyFactor::factor_ordered");
    return engine::CholeskyFactor::factor_ordered(rt, *p.field.cov, r0.order,
                                                  spec, sd);
  }();
  ep::EpScreener screener = [&] {
    const ScopedSpan span(spans, "ep", "EpScreener");
    return ep::EpScreener(factor.backend());
  }();
  const std::vector<double> b(r0.order.size(),
                              std::numeric_limits<double>::infinity());
  std::vector<double> ms;
  for (std::size_t q = 0; q < p.queries.size(); ++q) {
    const std::vector<double> a =
        ordered_limits(p.field, r0.order, sd, p.queries[q].threshold);
    const ScopedSpan span(spans, "ep", "EpScreener::screen",
                          static_cast<i64>(q));
    const WallTimer timer;
    (void)screener.screen(a, b);
    ms.push_back(timer.seconds() * 1e3);
  }
  return ms;
}

void run_end_to_end(const CrdWorkload& w, const RunConfig& cfg,
                    RunOutput& out, TraceCapture& trace) {
  const int reps = cfg.smoke ? 1 : kSetupReps;
  std::vector<double> setup_s;
  Prepared p;
  HostSpeed speed(cfg.workers);
  speed.calibrate();
  for (int rep = 0; rep < reps; ++rep) {
    const double cpu0 = process_cpu_s();
    Prepared next = set_up(w, cfg, trace.spans);
    setup_s.push_back(process_cpu_s() - cpu0);
    speed.calibrate();
    if (rep > 0) {
      out.checks.expect(same_regions(next.first, p.first),
                        "region_identical_across_repetitions");
    }
    p = std::move(next);
  }
  const i64 n = p.field.n();
  // The timed phase follows the set-up directly; the larger reference and
  // check sweeps run after it, so their allocations do not shape it.
  const std::vector<Detection> runs =
      timed_phase(*p.rt, p, w, cfg.seconds, &speed, trace.spans, out);
  const double peak_rss = peak_rss_mb();  // before the check and reference
  check_tiered(w, p, trace.spans, out.checks);
  const WallTimer reference_timer;
  const Detection reference =
      detect(*p.rt, p.field, w.reference, p.queries, trace.spans, -1);
  const double reference_s = reference_timer.seconds();
  check_results(reference, out.checks);
  speed.calibrate_until(kCalibrations);
  const std::vector<double> walls = walls_of(runs);
  std::vector<double> cpus;
  for (const Detection& d : runs) cpus.push_back(d.cpu_s);

  out.add("request_cpu_s", speed.nominal(median(cpus)));
  out.add("region_jaccard", region_jaccard(runs.front(), reference));
  out.add("setup_s", speed.nominal(median(setup_s)));
  out.add("peak_rss_mb", peak_rss);

  out.fact("n", static_cast<double>(n));
  out.fact("crd_p50_s", median(walls));
  out.fact("reference_s", reference_s);
  out.fact("detection_walls_s", walls);
  out.fact("detection_cpu_s", cpus);
  out.fact("setup_cpu_reps_s", setup_s);
  out.fact("calibration_cpu_s", speed.samples());
  out.fact("peak_rss_mb_with_reference", peak_rss_mb());
  out.fact("region_mismatch_frac",
           mismatch_frac(runs.front(), reference, n));
  for (std::size_t q = 0; q < runs.front().results.size(); ++q) {
    out.fact("region_size_u" + std::to_string(q),
             static_cast<double>(runs.front().results[q].region_size));
    out.fact("reference_region_size_u" + std::to_string(q),
             static_cast<double>(reference.results[q].region_size));
  }
}

void run_traced(const CrdWorkload& w, const RunConfig& cfg, RunOutput& out,
                TraceCapture& trace) {
  Prepared p = set_up(w, cfg, trace.spans);
  const i64 n = p.field.n();
  const int workers = cfg.workers;

  // Untraced phase: the end-to-end reference for the tracing overhead and
  // the P-worker time of the parallel efficiency.
  const std::vector<Detection> plain =
      timed_phase(*p.rt, p, w, cfg.seconds, nullptr, trace.spans, out);
  const std::vector<double> plain_walls = walls_of(plain);
  const double p50_plain = median(plain_walls);

  // Traced phase: runtime task records plus one span per public call.
  rt::Runtime traced(workers, /*enable_trace=*/true);
  trace.spans.set_enabled(true);
  const WallTimer phase;
  const std::vector<Detection> runs =
      timed_phase(traced, p, w, cfg.seconds, nullptr, trace.spans, out);
  const double phase_s = phase.seconds();
  std::vector<double> ep_ms;
  if (w.opts.pmvn.tiered) ep_ms = time_ep_screens(*p.rt, w, p, trace.spans);
  trace.spans.set_enabled(false);
  trace.tasks = traced.trace();
  check_tiered(w, p, trace.spans, out.checks);
  const auto& tasks = trace.tasks;

  // HPC baseline: the same detection on one worker.
  double t1 = 0.0;
  {
    rt::Runtime single(1);
    t1 = detect(single, p.field, w.opts, p.queries, trace.spans, -1).wall_s;
  }

  const auto per_run = [&](double total) {
    return total / static_cast<double>(runs.size());
  };
  std::vector<double> factor_s, evaluate_s, host_s;
  double samples = 0.0, queries = 0.0, ep_retired = 0.0, cached = 0.0;
  for (const Detection& d : runs) {
    double f = 0.0, e = 0.0;
    for (const core::CrdResult& r : d.results) {
      f += r.factor_seconds;
      e += r.sweep_seconds;
      samples += static_cast<double>(r.samples_used);
      queries += 1.0;
      ep_retired += r.method == engine::EvalMethod::kEp ? 1.0 : 0.0;
      cached += r.factor_cached ? 1.0 : 0.0;
    }
    factor_s.push_back(f);
    evaluate_s.push_back(e);
    host_s.push_back(d.wall_s - f - e);
  }
  const double qmc_busy = sum_task_seconds(tasks, {"qmc", "vecchia_qmc"});
  double busy = 0.0;
  i64 stolen = 0;
  for (const rt::TaskRecord& r : tasks) {
    busy += r.end_s - r.start_s;
    stolen += r.stolen ? 1 : 0;
  }
  const double nd = static_cast<double>(n);
  const double ntasks = static_cast<double>(tasks.size());

  out.add("geo.generate_busy_s",
          per_run(sum_task_seconds(tasks, {"generate", "tlr_gen_diag"})));
  out.add("tile.factor_busy_s",
          per_run(sum_task_seconds(tasks, {"potrf", "trsm", "syrk", "gemm"})));
  // n^3/3 flops is the dense Cholesky's count; the TLR and Vecchia arms
  // do not run the tiled dense factorization.
  out.add("tile.factor_gflops_computed",
          w.opts.mode == core::CrdMode::kDense
              ? nd * nd * nd / 3.0 / median(factor_s) / 1e9
              : 0.0);
  out.add("linalg.update_busy_s",
          per_run(sum_task_seconds(tasks, {"pmvn_update"})));
  out.add("tlr.compress_busy_s",
          per_run(sum_task_seconds(tasks, {"tlr_compress"})));
  out.add("tlr.factor_busy_s",
          per_run(sum_task_seconds(
              tasks, {"tlr_potrf", "tlr_trsm", "tlr_syrk", "tlr_gemm"})));
  out.add("vecchia.fit_busy_s",
          per_run(sum_task_seconds(tasks, {"vecchia_fit"})));
  out.add("stats.qmc_busy_s", per_run(qmc_busy));
  out.add("stats.qmc_entries_per_s",
          qmc_busy > 0.0 ? samples * nd / qmc_busy : 0.0);
  out.add("ep.screens",
          w.opts.pmvn.tiered ? per_run(queries) : 0.0);
  out.add("ep.screen_ms_p50", median(ep_ms));
  out.add("engine.factor_s", median(factor_s));
  out.add("engine.evaluate_s", median(evaluate_s));
  out.add("engine.samples_per_query", samples / queries);
  out.add("engine.ep_retired_frac", ep_retired / queries);
  out.add("engine.cache_hit_frac", cached / queries);
  out.add("core.host_s", median(host_s));
  out.add("runtime.tasks", per_run(ntasks));
  out.add("runtime.steal_frac",
          ntasks > 0 ? static_cast<double>(stolen) / ntasks : 0.0);
  out.add("runtime.busy_frac", busy / (workers * phase_s));
  out.add("runtime.parallel_eff", t1 / (workers * p50_plain));
  out.add_zeros({"serve.wait_ms_p50", "serve.wait_ms_p90",
                 "serve.engine_ms_p50", "serve.mean_batch",
                 "serve.degraded_frac", "serve.max_queue_depth",
                 "serve.latency_p99_ms"});
  const auto self = trace.spans.self_seconds_by_layer();
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : per_run(it->second);
  };
  out.add("span.core_self_s", self_of("core"));
  out.add("span.engine_self_s", self_of("engine"));
  out.add("span.ep_self_s", self_of("ep"));
  out.add("span.serve_self_s", self_of("serve"));
  out.add("bench.trace_overhead_frac",
          median(walls_of(runs)) / p50_plain - 1.0);
  // Wall-clock view of the untraced phase. A 10 s run holds 3-8
  // detections, too few for a 90th percentile (it would be the slowest
  // one), so the tail here is the upper quartile.
  double plain_total = 0.0;
  for (const double s : plain_walls) plain_total += s;
  out.add("wall.crd_p50_s", p50_plain);
  out.add("wall.latency_p50_ms", p50_plain * 1e3);
  out.add("wall.latency_p90_ms", quantile(plain_walls, 0.75) * 1e3);
  out.add("wall.requests_per_s",
          static_cast<double>(plain.size()) / plain_total);

  out.fact("n", nd);
  out.fact("detections_untraced", static_cast<double>(plain.size()));
  out.fact("detections_traced", static_cast<double>(runs.size()));
  out.fact("crd_p50_s_untraced", p50_plain);
  out.fact("crd_p50_s_traced", median(walls_of(runs)));
  out.fact("crd_single_worker_s", t1);
}

void run(const CrdWorkload& w, const RunConfig& cfg, RunOutput& out,
         TraceCapture& trace) {
  if (cfg.trace)
    run_traced(w, cfg, out, trace);
  else
    run_end_to_end(w, cfg, out, trace);
}

}  // namespace

void run_wind_dense_cold(const RunConfig& cfg, RunOutput& out,
                         TraceCapture& trace) {
  run(cfg.smoke ? single_threshold(core::CrdMode::kDense, 16, 12, 64)
                : single_threshold(core::CrdMode::kDense, 64, 48, 256),
      cfg, out, trace);
}

void run_wind_tlr_cold(const RunConfig& cfg, RunOutput& out,
                       TraceCapture& trace) {
  run(cfg.smoke ? single_threshold(core::CrdMode::kTlr, 20, 15, 100)
                : single_threshold(core::CrdMode::kTlr, 80, 60, 400),
      cfg, out, trace);
}

void run_wind_vecchia_ladder(const RunConfig& cfg, RunOutput& out,
                             TraceCapture& trace) {
  run(cfg.smoke ? vecchia_ladder(24, 128) : vecchia_ladder(96, 512), cfg, out,
      trace);
}

}  // namespace perfbench
