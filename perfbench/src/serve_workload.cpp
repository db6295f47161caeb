// serve_ladder_closed: a closed loop of client threads against one
// serve::Server holding two warm dense wind fields (n = 400, different
// ranges). Each client walks the 16-rung threshold ladder u = 2, 2.5, ...,
// 9.5 m/s of one field per cycle — one served confidence-region detection —
// in a seed-shuffled order, sending a decision-bearing prefix request and
// waiting for the reply before the next. Client 0 also registers a fresh
// field every kChurnEvery requests and queries it, so the factor cache sees
// builds beside the hot fields' hits.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "common/timer.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/pmvn_engine.hpp"
#include "ep/ep_screen.hpp"
#include "serve/server.hpp"
#include "wind.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace parmvn;

constexpr double kLevel = 0.95;  // 1 - alpha: the requests' decision
constexpr int kRungs = 16;       // u = 2, 2.5, ..., 9.5 m/s
constexpr int kChurnEvery = 32;  // client 0 requests between fresh fields
constexpr int kDirectChecks = 8; // responses re-evaluated on the engine
// Set-up here takes ~0.1 s and its run-to-run noise is large relative to
// that, so setup_s takes the median of more repetitions than the
// detection workloads do.
constexpr int kServeSetupReps = 9;

double rung_threshold(int rung) { return 2.0 + 0.5 * rung; }

struct HotField {
  std::string name;
  WindField field;
  std::vector<i64> order;
  std::vector<double> sd;
  std::vector<std::vector<double>> limits;  // per rung, ordered space
  std::vector<i64> reference_size;          // per rung
};

struct Setup {
  std::unique_ptr<serve::Server> server;
  std::vector<HotField> hot;
  engine::FactorSpec spec;
  i64 side = 0;       // grid side of every field
  i64 submitted = 0;  // requests this benchmark sent to the server
};

serve::ServeOptions serve_options() {
  serve::ServeOptions o;  // defaults: 2 ms window, max_batch 16
  o.engine.sampler = stats::SamplerKind::kRichtmyer;
  o.engine.samples_per_shift = 100;
  o.engine.shifts = 10;
  o.engine.adaptive = true;
  o.engine.tiered = true;
  return o;
}

serve::Request make_request(const std::string& field,
                            const std::vector<double>& a, u64 seed) {
  serve::Request req;
  req.field = field;
  req.a = a;
  req.seed = seed;
  req.prefix = true;
  req.decision = kLevel;
  return req;
}

std::shared_ptr<const engine::CholeskyFactor> cached_factor(
    Setup& s, const HotField& h) {
  return s.server->cache().get_or_factor(s.server->runtime(), *h.field.cov,
                                         h.order, s.spec, h.sd);
}

/// Set-up: the server and the two hot fields, registered and warmed.
Setup set_up(const RunConfig& cfg, i64 side, i64 tile, SpanLog& spans) {
  Setup s;
  s.server = std::make_unique<serve::Server>(serve_options(), cfg.workers);
  s.spec.kind = engine::FactorKind::kDense;
  s.spec.tile = tile;
  s.side = side;
  const double ranges[] = {kWindRange, 1.5 * kWindRange};
  for (int f = 0; f < 2; ++f) {
    HotField h;
    h.name = "wind_" + std::to_string(f);
    {
      const ScopedSpan span(spans, "geo", "make_wind_field");
      h.field = make_wind_field(side, side, ranges[f]);
    }
    h.order = descending_mean_order(h.field);
    h.sd = engine::standard_deviations(*h.field.cov);
    for (int r = 0; r < kRungs; ++r)
      h.limits.push_back(
          ordered_limits(h.field, h.order, h.sd, rung_threshold(r)));
    serve::FieldSpec fs;
    fs.cov = h.field.cov;
    fs.order = h.order;
    fs.factor = s.spec;
    s.server->register_field(h.name, std::move(fs));
    // Warm: the factor build and the EP site cache.
    (void)s.server->evaluate(make_request(h.name, h.limits[4], cfg.seed));
    ++s.submitted;
    s.hot.push_back(std::move(h));
  }
  return s;
}

/// Per-rung reference region sizes of each hot field: a fixed-budget
/// untiered sweep at 5x the sample cap on the server's own cached factor.
void compute_references(Setup& s, const RunConfig& cfg) {
  engine::EngineOptions ref = serve_options().engine;
  ref.adaptive = false;
  ref.tiered = false;
  ref.samples_per_shift *= 5;
  ref.panel_bytes = i64{16} << 20;  // bitwise the same, narrower panels
  for (HotField& h : s.hot) {
    const engine::PmvnEngine eng(s.server->runtime(), cached_factor(s, h), ref);
    const std::vector<double> b(h.order.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<engine::LimitSet> sets;
    for (int r = 0; r < kRungs; ++r)
      sets.push_back(engine::LimitSet{h.limits[static_cast<std::size_t>(r)], b,
                                      mix_seed(cfg.seed, 1000 + r), true,
                                      kLevel});
    h.reference_size.clear();
    for (const engine::QueryResult& q : eng.evaluate(sets))
      h.reference_size.push_back(region_size_from_prefix(q.prefix_prob, kLevel));
  }
}

struct Record {
  int field = -1;  // hot field index, -1 = a churn field
  int rung = 0;
  u64 seed = 0;
  double latency_ms = 0.0;
  serve::Response response;
};

struct Phase {
  std::vector<Record> records;
  std::vector<double> cycle_s;  // completed ladder cycles
  double wall_s = 0.0;
};

/// The closed loop for `seconds`: clients stop starting requests at the
/// deadline and the phase ends when the last reply arrives.
Phase closed_loop(Setup& s, const RunConfig& cfg, int phase_id,
                  SpanLog& spans) {
  const int clients = std::min(4, cfg.workers);
  std::vector<Phase> per_client(static_cast<std::size_t>(clients));
  std::atomic<i64> next_request{0};
  std::atomic<i64> submitted{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  const WallTimer phase;

  const auto client_loop = [&](int c) {
    Phase& mine = per_client[static_cast<std::size_t>(c)];
    std::mt19937_64 rng(mix_seed(cfg.seed, 100 * phase_id + c));
    int sent = 0;
    int churned = 0;
    const auto send = [&](const std::string& name, const std::vector<double>& a,
                          int field, int rung) {
      Record rec;
      rec.field = field;
      rec.rung = rung;
      rec.seed = rng();
      const i64 id = next_request.fetch_add(1);
      const ScopedSpan span(spans, "serve", "Server::submit", id);
      const WallTimer timer;
      rec.response = s.server->submit(make_request(name, a, rec.seed)).get();
      rec.latency_ms = timer.seconds() * 1e3;
      submitted.fetch_add(1);
      mine.records.push_back(std::move(rec));
    };
    while (phase.seconds() < cfg.seconds) {
      const int field = static_cast<int>(rng() % 2);
      std::vector<int> rungs(kRungs);
      std::iota(rungs.begin(), rungs.end(), 0);
      std::shuffle(rungs.begin(), rungs.end(), rng);
      // One ladder cycle is one served detection: the root span of its
      // requests.
      const ScopedSpan cycle_span(spans, "bench", "ladder_cycle",
                                  static_cast<i64>(c) * 100000 +
                                      static_cast<i64>(mine.cycle_s.size()));
      const WallTimer cycle;
      bool complete = true;
      for (const int rung : rungs) {
        if (phase.seconds() >= cfg.seconds) {
          complete = false;
          break;
        }
        if (c == 0 && ++sent % kChurnEvery == 0) {
          const std::string name = "churn_" + std::to_string(phase_id) + "_" +
                                   std::to_string(churned++);
          const HotField& h = s.hot.front();
          serve::FieldSpec fs;
          {
            const ScopedSpan span(spans, "geo", "make_wind_field");
            const double range =
                kWindRange * (0.75 + 0.5 * std::uniform_real_distribution<>()(rng));
            fs.cov = make_wind_field(s.side, s.side, range).cov;
          }
          fs.order = h.order;
          fs.factor = s.spec;
          {
            const ScopedSpan span(spans, "serve", "Server::register_field");
            s.server->register_field(name, std::move(fs));
          }
          send(name, h.limits[8], -1, 8);
        }
        const HotField& h = s.hot[static_cast<std::size_t>(field)];
        send(h.name, h.limits[static_cast<std::size_t>(rung)], field, rung);
      }
      if (complete) mine.cycle_s.push_back(cycle.seconds());
    }
  };
  // A client's failure is rethrown on the calling thread after the join.
  const auto client = [&](int c) {
    try {
      client_loop(c);
    } catch (...) {
      errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  Phase all;
  all.wall_s = phase.seconds();
  for (Phase& p : per_client) {
    std::move(p.records.begin(), p.records.end(),
              std::back_inserter(all.records));
    all.cycle_s.insert(all.cycle_s.end(), p.cycle_s.begin(), p.cycle_s.end());
  }
  s.submitted += submitted.load();
  return all;
}

bool failed(const Record& r) {
  return !r.response.status.ok() ||
         r.response.result.method == engine::EvalMethod::kDeadline;
}

struct Summary {
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;    // latency minus the batch's engine time
  std::vector<double> engine_ms;  // QueryResult::seconds
  i64 ok = 0;
  i64 failed = 0;
  i64 ep_retired = 0;
  i64 degraded = 0;
  double samples = 0.0;
  double region_mismatch = 0.0;  // mean |size - reference| / n, hot fields
  // Region overlap with the reference over the hot-field responses. Both
  // regions are prefixes of the same ordering, so |A & B| = min of the two
  // sizes and |A | B| = max.
  i64 region_both = 0;
  i64 region_either = 0;
  [[nodiscard]] double region_jaccard() const {
    return region_either > 0 ? static_cast<double>(region_both) /
                                   static_cast<double>(region_either)
                             : 1.0;
  }
};

Summary summarize(const Phase& phase, const Setup& s) {
  Summary sum;
  i64 compared = 0;
  for (const Record& r : phase.records) {
    if (failed(r)) {
      ++sum.failed;
      continue;
    }
    const engine::QueryResult& q = r.response.result;
    ++sum.ok;
    sum.latency_ms.push_back(r.latency_ms);
    sum.engine_ms.push_back(q.seconds * 1e3);
    sum.wait_ms.push_back(r.latency_ms - q.seconds * 1e3);
    sum.ep_retired += q.method == engine::EvalMethod::kEp ? 1 : 0;
    sum.degraded += r.response.degrade != serve::DegradeRung::kNone ? 1 : 0;
    sum.samples += static_cast<double>(q.samples_used);
    if (r.field >= 0 && !s.hot[static_cast<std::size_t>(r.field)]
                              .reference_size.empty()) {
      const HotField& h = s.hot[static_cast<std::size_t>(r.field)];
      const i64 size = region_size_from_prefix(q.prefix_prob, kLevel);
      const i64 ref = h.reference_size[static_cast<std::size_t>(r.rung)];
      sum.region_mismatch += static_cast<double>(std::llabs(size - ref)) /
                             static_cast<double>(h.field.n());
      sum.region_both += std::min(size, ref);
      sum.region_either += std::max(size, ref);
      ++compared;
    }
  }
  if (compared > 0) sum.region_mismatch /= static_cast<double>(compared);
  return sum;
}

/// Rung-kNone responses that the QMC tier answered must be bitwise equal
/// to a direct untiered PmvnEngine evaluation on the server's cached factor
/// (EP screening only skips work; it never changes a straddler's numbers).
void check_direct_engine(Setup& s, const Phase& phase, Checks& checks) {
  engine::EngineOptions direct = serve_options().engine;
  direct.tiered = false;
  const std::size_t stride =
      std::max<std::size_t>(1, phase.records.size() / kDirectChecks);
  int compared = 0;
  for (std::size_t i = 0; i < phase.records.size() && compared < kDirectChecks;
       i += stride) {
    const Record& r = phase.records[i];
    if (r.field < 0 || failed(r) ||
        r.response.degrade != serve::DegradeRung::kNone ||
        r.response.result.method != engine::EvalMethod::kQmc)
      continue;
    const HotField& h = s.hot[static_cast<std::size_t>(r.field)];
    const engine::PmvnEngine eng(s.server->runtime(), cached_factor(s, h),
                                 direct);
    const std::vector<double> b(h.order.size(),
                                std::numeric_limits<double>::infinity());
    const engine::QueryResult d = eng.evaluate_one(engine::LimitSet{
        h.limits[static_cast<std::size_t>(r.rung)], b, r.seed, true, kLevel});
    const engine::QueryResult& got = r.response.result;
    checks.expect(got.prob == d.prob && got.error3sigma == d.error3sigma &&
                      got.samples_used == d.samples_used &&
                      got.prefix_prob == d.prefix_prob,
                  "served_equals_direct_engine",
                  "request " + std::to_string(i));
    ++compared;
  }
  checks.expect(compared > 0, "served_equals_direct_engine_sampled",
                "no QMC-answered rung-none response to compare");
}

/// Drain, then the ServerStats accounting invariant and the leak check.
void drain_and_check(Setup& s, Checks& checks) {
  s.server->drain();
  const serve::ServerStats st = s.server->stats();
  const i64 accounted = st.rejected_invalid + st.rejected_overload +
                        st.rejected_breaker + st.rejected_admit_fault +
                        st.expired_in_queue + st.completed_ok + st.failed;
  checks.expect(st.submitted == accounted && st.queue_depth == 0 &&
                    st.submitted == s.submitted,
                "server_stats_accounting",
                "submitted " + std::to_string(st.submitted) + " accounted " +
                    std::to_string(accounted) + " sent " +
                    std::to_string(s.submitted));
  checks.expect(s.server->handles_leaked() == 0, "no_leaked_handles");
}

double mean_batch(const serve::ServerStats& a, const serve::ServerStats& b) {
  const i64 batches = b.batches - a.batches;
  return batches > 0 ? static_cast<double>(b.batched_queries -
                                           a.batched_queries) /
                           static_cast<double>(batches)
                     : 0.0;
}

void count_requests(const Summary& sum, RunOutput& out) {
  out.attempted += sum.ok + sum.failed;
  out.failed += sum.failed;
  out.checks.expect(sum.failed == 0, "requests_ok",
                    std::to_string(sum.failed) + " failed");
}

void run_end_to_end(const RunConfig& cfg, i64 side, i64 tile, RunOutput& out,
                    TraceCapture& trace) {
  const int reps = cfg.smoke ? 1 : kServeSetupReps;
  std::vector<double> setup_s;
  Setup s;
  HostSpeed speed(cfg.workers);
  speed.calibrate();
  for (int rep = 0; rep < reps; ++rep) {
    if (s.server) {
      drain_and_check(s, out.checks);
      s = Setup{};
    }
    const double cpu0 = process_cpu_s();
    s = set_up(cfg, side, tile, trace.spans);
    setup_s.push_back(process_cpu_s() - cpu0);
    speed.calibrate();
  }
  const serve::ServerStats before = s.server->stats();
  const double cpu0 = process_cpu_s();
  const Phase phase = closed_loop(s, cfg, 0, trace.spans);
  const double phase_cpu_s = process_cpu_s() - cpu0;
  const serve::ServerStats after = s.server->stats();
  // The closed loop is not interrupted for calibrations; the rest follow it.
  speed.calibrate_until(kCalibrations);
  const double peak_rss = peak_rss_mb();  // before the references
  const WallTimer reference_timer;
  compute_references(s, cfg);
  const double reference_s = reference_timer.seconds();
  const Summary sum = summarize(phase, s);
  count_requests(sum, out);
  check_direct_engine(s, phase, out.checks);
  drain_and_check(s, out.checks);

  // Concurrent requests share the process, so the CPU time per request is
  // the timed phase's CPU time over the completed requests.
  out.add("request_cpu_s",
          speed.nominal(phase_cpu_s) /
              static_cast<double>(std::max<i64>(1, sum.ok)));
  out.add("region_jaccard", sum.region_jaccard());
  out.add("setup_s", speed.nominal(median(setup_s)));
  out.add("peak_rss_mb", peak_rss);

  out.fact("n", static_cast<double>(s.hot.front().field.n()));
  out.fact("crd_p50_s", median(phase.cycle_s));
  out.fact("latency_p50_ms", median(sum.latency_ms));
  out.fact("latency_p90_ms", quantile(sum.latency_ms, 0.9));
  out.fact("requests_per_s", static_cast<double>(sum.ok) / phase.wall_s);
  out.fact("reference_s", reference_s);
  out.fact("phase_cpu_s", phase_cpu_s);
  out.fact("setup_cpu_reps_s", setup_s);
  out.fact("calibration_cpu_s", speed.samples());
  out.fact("peak_rss_mb_with_reference", peak_rss_mb());
  out.fact("requests", static_cast<double>(phase.records.size()));
  out.fact("ladder_cycles", static_cast<double>(phase.cycle_s.size()));
  out.fact("region_mismatch_frac", sum.region_mismatch);
  out.fact("latency_p99_ms", quantile(sum.latency_ms, 0.99));
  out.fact("mean_batch", mean_batch(before, after));
  out.fact("ep_retired_frac", static_cast<double>(sum.ep_retired) /
                                  static_cast<double>(std::max<i64>(1, sum.ok)));
  out.fact("cache_builds", static_cast<double>(after.cache.misses -
                                               before.cache.misses));
}

void run_traced(const RunConfig& cfg, i64 side, i64 tile, RunOutput& out,
                TraceCapture& trace) {
  Setup s = set_up(cfg, side, tile, trace.spans);
  const Phase plain = closed_loop(s, cfg, 0, trace.spans);
  const Summary plain_sum = summarize(plain, s);
  count_requests(plain_sum, out);

  rt::Runtime& rt = s.server->runtime();
  const i64 tasks0 = rt.tasks_executed();
  const i64 stolen0 = rt.tasks_stolen();
  const serve::ServerStats before = s.server->stats();
  trace.spans.set_enabled(true);
  const Phase phase = closed_loop(s, cfg, 1, trace.spans);
  const serve::ServerStats after = s.server->stats();
  const i64 tasks = rt.tasks_executed() - tasks0;
  const i64 stolen = rt.tasks_stolen() - stolen0;

  // EP screens on the hot field's cached factor, one per rung.
  std::vector<double> ep_ms;
  {
    const HotField& h = s.hot.front();
    const auto factor = cached_factor(s, h);
    ep::EpScreener screener = [&] {
      const ScopedSpan span(trace.spans, "ep", "EpScreener");
      return ep::EpScreener(factor->backend());
    }();
    const std::vector<double> b(h.order.size(),
                                std::numeric_limits<double>::infinity());
    for (int r = 0; r < kRungs; ++r) {
      const ScopedSpan span(trace.spans, "ep", "EpScreener::screen", r);
      const WallTimer timer;
      (void)screener.screen(h.limits[static_cast<std::size_t>(r)], b);
      ep_ms.push_back(timer.seconds() * 1e3);
    }
  }
  trace.spans.set_enabled(false);
  const Summary sum = summarize(phase, s);
  count_requests(sum, out);
  check_direct_engine(s, phase, out.checks);
  drain_and_check(s, out.checks);

  const double requests = static_cast<double>(std::max<i64>(1, sum.ok));
  const i64 lookups = (after.cache.hits - before.cache.hits) +
                      (after.cache.misses - before.cache.misses);
  const i64 batches = after.batches - before.batches;
  out.add_zeros({"geo.generate_busy_s", "tile.factor_busy_s",
                 "tile.factor_gflops_computed", "linalg.update_busy_s",
                 "tlr.compress_busy_s", "tlr.factor_busy_s",
                 "vecchia.fit_busy_s", "stats.qmc_busy_s",
                 "stats.qmc_entries_per_s"});
  out.add("ep.screens", kRungs);
  out.add("ep.screen_ms_p50", median(ep_ms));
  out.add("engine.factor_s", 0.0);
  out.add("engine.evaluate_s", median(sum.engine_ms) / 1e3);
  out.add("engine.samples_per_query", sum.samples / requests);
  out.add("engine.ep_retired_frac",
          static_cast<double>(sum.ep_retired) / requests);
  out.add("engine.cache_hit_frac",
          lookups > 0 ? static_cast<double>(after.cache.hits -
                                            before.cache.hits) /
                            static_cast<double>(lookups)
                      : 0.0);
  out.add("core.host_s", 0.0);
  out.add("runtime.tasks", static_cast<double>(tasks) / requests);
  out.add("runtime.steal_frac",
          tasks > 0 ? static_cast<double>(stolen) / static_cast<double>(tasks)
                    : 0.0);
  out.add_zeros({"runtime.busy_frac", "runtime.parallel_eff"});
  out.add("serve.wait_ms_p50", median(sum.wait_ms));
  out.add("serve.wait_ms_p90", quantile(sum.wait_ms, 0.9));
  out.add("serve.engine_ms_p50", median(sum.engine_ms));
  out.add("serve.mean_batch", mean_batch(before, after));
  out.add("serve.degraded_frac", static_cast<double>(sum.degraded) / requests);
  out.add("serve.max_queue_depth", static_cast<double>(after.max_queue_depth));
  out.add("serve.latency_p99_ms", quantile(sum.latency_ms, 0.99));
  const auto self = trace.spans.self_seconds_by_layer();
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / requests;
  };
  out.add("span.core_self_s", self_of("core"));
  out.add("span.engine_self_s", self_of("engine"));
  out.add("span.ep_self_s", self_of("ep"));
  out.add("span.serve_self_s", self_of("serve"));
  out.add("bench.trace_overhead_frac",
          median(sum.latency_ms) / median(plain_sum.latency_ms) - 1.0);
  // Wall-clock view of the untraced phase.
  out.add("wall.crd_p50_s", median(plain.cycle_s));
  out.add("wall.latency_p50_ms", median(plain_sum.latency_ms));
  out.add("wall.latency_p90_ms", quantile(plain_sum.latency_ms, 0.9));
  out.add("wall.requests_per_s",
          static_cast<double>(plain_sum.ok) / plain.wall_s);

  out.fact("n", static_cast<double>(s.hot.front().field.n()));
  out.fact("requests_untraced", static_cast<double>(plain.records.size()));
  out.fact("requests_traced", static_cast<double>(phase.records.size()));
  out.fact("batches_traced", static_cast<double>(batches));
  out.fact("runtime_busy_frac_note",
           std::string("serve::Server builds its runtime untraced; task "
                       "busy metrics are 0 on this workload"));
}

}  // namespace

void run_serve_ladder_closed(const RunConfig& cfg, RunOutput& out,
                             TraceCapture& trace) {
  const i64 side = cfg.smoke ? 8 : 20;
  const i64 tile = cfg.smoke ? 32 : 100;
  if (cfg.trace)
    run_traced(cfg, side, tile, out, trace);
  else
    run_end_to_end(cfg, side, tile, out, trace);
}

}  // namespace perfbench
