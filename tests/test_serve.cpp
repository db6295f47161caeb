// Serving-layer tests (src/serve): typed admission control and
// backpressure, dynamic batching with the bitwise batched==single contract
// extended through the server, queue-expired deadlines, retry + circuit
// breaker, the overload degradation ladder, graceful drain with zero
// leaked handles, the serve.* fault sites, and concurrent
// detect_confidence_regions callers sharing one Runtime + FactorCache
// (Runtime::exclusive_epoch) at 1 and 2 workers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/factor_cache.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "serve/breaker.hpp"
#include "serve/server.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;
using namespace std::chrono_literals;

struct SpatialProblem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;
  std::shared_ptr<geo::KernelCovGenerator> cov;

  explicit SpatialProblem(i64 side, double range = 0.2)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, range)),
        cov(std::make_shared<geo::KernelCovGenerator>(locs, kernel, 1e-6)) {}

  [[nodiscard]] i64 n() const { return cov->rows(); }
};

engine::EngineOptions small_opts() {
  engine::EngineOptions opts;
  opts.samples_per_shift = 150;
  opts.shifts = 4;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  return opts;
}

serve::FieldSpec field_for(const SpatialProblem& pb, i64 tile = 16) {
  serve::FieldSpec f;
  f.cov = pb.cov;
  f.factor = engine::FactorSpec{engine::FactorKind::kDense, tile, 0.0, -1};
  return f;
}

serve::Request level_request(const SpatialProblem& pb, double level,
                             u64 seed = 42) {
  serve::Request req;
  req.field = "gp";
  req.a.assign(static_cast<std::size_t>(pb.n()), level);
  req.seed = seed;
  return req;
}

// ------------------------------------------------------------- validation

TEST(ServeOptions, ValidateRejectsEveryBadKnobTyped) {
  const auto expect_throws = [](auto mutate) {
    serve::ServeOptions o;
    mutate(o);
    EXPECT_THROW(o.validate(), Error);
  };
  serve::ServeOptions ok;
  EXPECT_NO_THROW(ok.validate());
  expect_throws([](auto& o) { o.queue_capacity = 0; });
  expect_throws([](auto& o) { o.max_batch = 0; });
  expect_throws([](auto& o) { o.batch_window_ms = -1; });
  expect_throws([](auto& o) { o.cache_capacity = 0; });
  expect_throws([](auto& o) { o.max_retries = -1; });
  expect_throws([](auto& o) { o.retry_backoff_ms = -1; });
  expect_throws([](auto& o) { o.breaker_threshold = 0; });
  expect_throws([](auto& o) { o.breaker_cooldown_ms = -1; });
  expect_throws([](auto& o) { o.degrade_tiered_at = 0.0; });
  expect_throws([](auto& o) { o.degrade_shift_cap_at = 1.5; });
  expect_throws([](auto& o) {
    o.degrade_tiered_at = 0.9;
    o.degrade_shift_cap_at = 0.5;
  });
  expect_throws([](auto& o) { o.degraded_shifts = 1; });
  expect_throws([](auto& o) {
    o.engine.antithetic = true;
    o.engine.shifts = 4;
    o.degraded_shifts = 3;
  });
  // Engine knobs are validated through the same entry point.
  expect_throws([](auto& o) { o.engine.deadline_ms = -1; });
  expect_throws([](auto& o) { o.engine.ep_margin = -0.1; });
}

TEST(ServeOptions, ServerConstructorValidates) {
  serve::ServeOptions o;
  o.max_batch = 0;
  EXPECT_THROW(serve::Server server(o, 1), Error);
}

TEST(Server, RegisterFieldRejectsBadSpecsAndDuplicates) {
  const SpatialProblem pb(5);
  serve::Server server(serve::ServeOptions{}, 1);
  serve::FieldSpec bad_order = field_for(pb);
  bad_order.order = {0, 1, 2};  // wrong length
  EXPECT_THROW(server.register_field("gp", std::move(bad_order)), Error);
  server.register_field("gp", field_for(pb));
  EXPECT_THROW(server.register_field("gp", field_for(pb)), Error);
}

TEST(Server, MalformedRequestsRejectTypedBeforeAdmission) {
  const SpatialProblem pb(5);
  serve::Server server(serve::ServeOptions{}, 1);
  server.register_field("gp", field_for(pb));

  serve::Request unknown = level_request(pb, 0.0);
  unknown.field = "nope";
  EXPECT_EQ(server.evaluate(std::move(unknown)).status.code,
            StatusCode::kInvalidArgument);

  serve::Request short_a = level_request(pb, 0.0);
  short_a.a.pop_back();
  EXPECT_EQ(server.evaluate(std::move(short_a)).status.code,
            StatusCode::kInvalidArgument);

  serve::Request bad_b = level_request(pb, 0.0);
  bad_b.b.assign(3, 1.0);
  EXPECT_EQ(server.evaluate(std::move(bad_b)).status.code,
            StatusCode::kInvalidArgument);

  serve::Request bad_deadline = level_request(pb, 0.0);
  bad_deadline.deadline_ms = -5;
  EXPECT_EQ(server.evaluate(std::move(bad_deadline)).status.code,
            StatusCode::kInvalidArgument);

  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.rejected_invalid, 4);
  EXPECT_EQ(s.admitted, 0);
}

// ---------------------------------------------------------------- batching

TEST(Server, BatchingEquivalenceBitwise) {
  // Requests coalesced into one fused engine batch must answer bitwise
  // identically to evaluating each query directly against the engine —
  // the batched==single contract, extended through the serving layer.
  const SpatialProblem pb(6);
  const i64 n = pb.n();

  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.batch_window_ms = 250;  // generous: all eight must coalesce
  opts.max_batch = 8;
  serve::Server server(opts, 2);
  server.register_field("gp", field_for(pb));

  std::vector<std::future<serve::Response>> futs;
  for (int q = 0; q < 8; ++q) {
    serve::Request req = level_request(pb, -0.5 + 0.1 * q, 100 + q);
    req.prefix = (q % 2 == 0);
    futs.push_back(server.submit(std::move(req)));
  }
  std::vector<serve::Response> got;
  got.reserve(futs.size());
  for (auto& f : futs) got.push_back(f.get());

  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.batches, 1) << "window should coalesce all eight";
  EXPECT_EQ(s.max_batch_size, 8);
  EXPECT_EQ(s.cache.misses, 1);
  EXPECT_EQ(s.completed_ok, 8);

  // Direct evaluation: same spec, identity order, same seeds.
  rt::Runtime rt(2);
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  const engine::FactorSpec spec{engine::FactorKind::kDense, 16, 0.0, -1};
  const auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, *pb.cov, identity, spec));
  const engine::PmvnEngine eng(rt, factor, small_opts());
  for (int q = 0; q < 8; ++q) {
    const std::vector<double> a(static_cast<std::size_t>(n), -0.5 + 0.1 * q);
    const std::vector<double> b(static_cast<std::size_t>(n),
                                std::numeric_limits<double>::infinity());
    engine::LimitSet query{a, b, 100 + static_cast<u64>(q), q % 2 == 0,
                           std::numeric_limits<double>::quiet_NaN()};
    const engine::QueryResult direct = eng.evaluate_one(query);
    const serve::Response& r = got[static_cast<std::size_t>(q)];
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(r.degrade, serve::DegradeRung::kNone);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.result.prob, direct.prob) << "query " << q;
    EXPECT_EQ(r.result.error3sigma, direct.error3sigma);
    EXPECT_EQ(r.result.samples_used, direct.samples_used);
    ASSERT_EQ(r.result.prefix_prob.size(), direct.prefix_prob.size());
    for (std::size_t i = 0; i < direct.prefix_prob.size(); ++i)
      EXPECT_EQ(r.result.prefix_prob[i], direct.prefix_prob[i]);
  }
}

TEST(Server, EmptyUpperLimitsMeanPlusInfinity) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  serve::Request implicit = level_request(pb, 0.0);
  serve::Request explicit_b = level_request(pb, 0.0);
  explicit_b.b.assign(static_cast<std::size_t>(pb.n()),
                      std::numeric_limits<double>::infinity());
  const serve::Response r1 = server.evaluate(std::move(implicit));
  const serve::Response r2 = server.evaluate(std::move(explicit_b));
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.result.prob, r2.result.prob);
}

// ---------------------------------------------------------------- deadlines

TEST(Server, DeadlineExpiredInQueueRetiresTypedWithoutEngineWork) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.batch_window_ms = 60;  // the window outlives the budget
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  serve::Request req = level_request(pb, 0.0);
  req.deadline_ms = 1;
  const serve::Response r = server.evaluate(std::move(req));
  EXPECT_EQ(r.status.code, StatusCode::kDeadline);
  EXPECT_EQ(r.result.samples_used, 0) << "retired before touching the engine";
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.expired_in_queue, 1);
  EXPECT_EQ(s.completed_ok, 0);
}

TEST(Server, GenerousDeadlinePropagatesAndCompletes) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  serve::Request req = level_request(pb, 0.0);
  req.deadline_ms = 60000;
  const serve::Response r = server.evaluate(std::move(req));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.result.method, engine::EvalMethod::kQmc);
}

// ---------------------------------------------------------------- drain

TEST(Server, DrainRejectsNewSubmitsAndIsIdempotent) {
  const SpatialProblem pb(5);
  serve::Server server(serve::ServeOptions{}, 1);
  server.register_field("gp", field_for(pb));
  server.drain();
  server.drain();  // idempotent
  const serve::Response r = server.evaluate(level_request(pb, 0.0));
  EXPECT_EQ(r.status.code, StatusCode::kOverloaded);
  const serve::ServerStats s = server.stats();
  EXPECT_TRUE(s.draining);
  EXPECT_EQ(s.rejected_overload, 1);
  EXPECT_EQ(server.handles_leaked(), 0);
}

// ---------------------------------------------------------------- faults

TEST(ServeFaults, AdmitFaultYieldsOneTypedResponse) {
  const SpatialProblem pb(5);
  serve::Server server(serve::ServeOptions{}, 1);
  server.register_field("gp", field_for(pb));
  {
    fault::ScopedFault f("serve.admit", 1, 1);
    const serve::Response r = server.evaluate(level_request(pb, 0.0));
    EXPECT_EQ(r.status.code, StatusCode::kEvalFailed);
    EXPECT_NE(r.status.message.find("serve.admit"), std::string::npos);
  }
  EXPECT_EQ(server.stats().rejected_admit_fault, 1);
  // The next request goes through untouched.
  EXPECT_TRUE(server.evaluate(level_request(pb, 0.0)).status.ok());
}

TEST(ServeFaults, BatchFaultRetriesTransientlyThenSucceeds) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.max_retries = 2;
  opts.retry_backoff_ms = 0;
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));
  fault::ScopedFault f("serve.batch", 1, 1);  // first attempt only
  const serve::Response r = server.evaluate(level_request(pb, 0.0));
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(server.stats().retries, 1);
}

TEST(ServeFaults, BatchFaultExhaustsRetriesTyped) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.max_retries = 1;
  opts.retry_backoff_ms = 0;
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));
  fault::ScopedFault f("serve.batch", 1, 100);  // persistent
  const serve::Response r = server.evaluate(level_request(pb, 0.0));
  EXPECT_EQ(r.status.code, StatusCode::kEvalFailed);
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(server.stats().failed, 1);
}

TEST(ServeFaults, RespondFaultDegradesToTypedFailureNeverALostRequest) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));
  fault::ScopedFault f("serve.respond", 1, 1);
  std::future<serve::Response> fut = server.submit(level_request(pb, 0.0));
  ASSERT_EQ(fut.wait_for(30s), std::future_status::ready)
      << "a respond-path fault must never lose the response";
  const serve::Response r = fut.get();
  EXPECT_EQ(r.status.code, StatusCode::kEvalFailed);
  EXPECT_NE(r.status.message.find("serve.respond"), std::string::npos);
  EXPECT_EQ(server.stats().failed, 1);
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreakerUnit, OpensAtThresholdAndHalfOpenProbes) {
  serve::CircuitBreaker b(2, 50ms);
  const auto t0 = serve::CircuitBreaker::Clock::now();
  EXPECT_TRUE(b.allow(t0));
  EXPECT_FALSE(b.record_failure(t0));
  EXPECT_TRUE(b.allow(t0));            // one failure: still closed
  EXPECT_TRUE(b.record_failure(t0));   // second: trips
  EXPECT_FALSE(b.allow(t0 + 10ms));    // inside cooldown
  EXPECT_TRUE(b.allow(t0 + 60ms));     // half-open probe allowed
  EXPECT_TRUE(b.record_failure(t0 + 60ms));  // probe failed: re-opens
  EXPECT_FALSE(b.allow(t0 + 80ms));
  b.record_success();
  EXPECT_TRUE(b.allow(t0 + 80ms));     // success closes and resets
  EXPECT_FALSE(b.record_failure(t0 + 80ms));
}

TEST(ServeFaults, CircuitBreakerFailsFastWithoutNewFactorAttempts) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.max_retries = 0;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_ms = 60000;  // no probe during this test
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  fault::ScopedFault f("engine.factor", 1, 1'000'000);  // persistent
  for (int q = 0; q < 2; ++q) {
    const serve::Response r = server.evaluate(level_request(pb, 0.0));
    EXPECT_EQ(r.status.code, StatusCode::kFactorFailed);
    EXPECT_FALSE(r.breaker_open);
  }
  const i64 hits_at_trip = fault::hits("engine.factor");
  const serve::Response fast = server.evaluate(level_request(pb, 0.0));
  EXPECT_EQ(fast.status.code, StatusCode::kFactorFailed);
  EXPECT_TRUE(fast.breaker_open);
  EXPECT_EQ(fault::hits("engine.factor"), hits_at_trip)
      << "an open breaker must not spend another factor attempt";
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.rejected_breaker, 1);
  EXPECT_EQ(s.breaker_trips, 1);
  EXPECT_EQ(s.failed, 2);
}

TEST(ServeFaults, CircuitBreakerRecoversAfterCooldown) {
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.max_retries = 0;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_ms = 200;
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  fault::arm("engine.factor", 1, 1'000'000);
  EXPECT_EQ(server.evaluate(level_request(pb, 0.0)).status.code,
            StatusCode::kFactorFailed);
  EXPECT_TRUE(server.evaluate(level_request(pb, 0.0)).breaker_open);
  fault::disarm("engine.factor");
  std::this_thread::sleep_for(250ms);  // past cooldown: half-open
  const serve::Response probe = server.evaluate(level_request(pb, 0.0));
  ASSERT_TRUE(probe.status.ok()) << probe.status.message;
  EXPECT_TRUE(server.evaluate(level_request(pb, 0.0)).status.ok());
}

// ------------------------------------------------------------- degradation

TEST(Server, DegradationLadderReportsRungAndCapsShifts) {
  // Deterministic queue pressure: the first (deadline-free) request opens a
  // batch and holds its 400 ms window while deadline-carrying requests —
  // a different batching key — pile up behind it. Queue depth at batch
  // close then selects the rung: 3 of capacity 4 crosses the 0.75
  // shift-cap threshold.
  const SpatialProblem pb(5);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.queue_capacity = 4;
  opts.batch_window_ms = 400;
  opts.max_batch = 8;
  opts.degraded_shifts = 2;
  serve::Server server(opts, 1);
  server.register_field("gp", field_for(pb));

  std::future<serve::Response> first = server.submit(level_request(pb, 0.0));
  // Give the dispatcher a moment to open the batch for `first`, so the
  // pressure requests stay queued rather than coalescing ahead of it.
  std::this_thread::sleep_for(50ms);
  std::vector<std::future<serve::Response>> pressure;
  for (int q = 0; q < 3; ++q) {
    serve::Request req = level_request(pb, 0.1 * q, 7 + q);
    req.deadline_ms = 60000;  // different key; far from expiring
    pressure.push_back(server.submit(std::move(req)));
  }

  const serve::Response r = first.get();
  ASSERT_TRUE(r.status.ok()) << r.status.message;
  EXPECT_EQ(r.degrade, serve::DegradeRung::kShiftCap);
  EXPECT_LE(r.result.shifts_used, opts.degraded_shifts);
  for (auto& f : pressure) {
    const serve::Response p = f.get();
    ASSERT_TRUE(p.status.ok()) << p.status.message;
  }
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.degraded_shift_capped, 1);
  EXPECT_EQ(s.completed_ok, 4);
}

// --------------------------------------------------------------- saturation

TEST(Server, SaturationShedsTypedDegradesAndDrainsClean) {
  // The acceptance scenario: clients push far past queue capacity with a
  // mix of deadlines while the factor path coughs transient faults. The
  // server must shed with typed kOverloaded, degrade rung by rung instead
  // of stalling, never deadlock, answer every admitted request exactly
  // once, and drain to zero leaked handles.
  const SpatialProblem pb(6);
  serve::ServeOptions opts;
  opts.engine = small_opts();
  opts.queue_capacity = 4;
  opts.batch_window_ms = 1;
  opts.max_batch = 4;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 0;
  opts.breaker_threshold = 1000;  // keep the breaker out of this scenario
  serve::Server server(opts, 2);
  server.register_field("gp", field_for(pb));

  // Hits 1 and 2 trip: the first batch burns its retry and fails typed;
  // the third attempt (next batch) succeeds and is cached from then on.
  fault::ScopedFault f("engine.factor", 1, 2);

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<serve::Response>> responses(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::Response>> futs;
      for (int q = 0; q < kPerClient; ++q) {
        serve::Request req =
            level_request(pb, -0.4 + 0.1 * q, static_cast<u64>(c * 16 + q));
        if (q % 2 == 1) req.deadline_ms = 25;
        futs.push_back(server.submit(std::move(req)));
      }
      for (auto& fut : futs) {
        EXPECT_EQ(fut.wait_for(60s), std::future_status::ready)
            << "no admitted request may hang";
        responses[static_cast<std::size_t>(c)].push_back(fut.get());
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  i64 seen = 0;
  for (const auto& per_client : responses) {
    for (const serve::Response& r : per_client) {
      ++seen;
      // Every response is typed; ok responses carry a real estimate.
      if (r.status.ok()) {
        EXPECT_GE(r.result.prob, 0.0);
        EXPECT_LE(r.result.prob, 1.0);
      } else {
        EXPECT_FALSE(r.status.message.empty());
      }
    }
  }
  EXPECT_EQ(seen, kClients * kPerClient);

  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, kClients * kPerClient);
  EXPECT_EQ(s.queue_depth, 0u) << "drain leaves nothing behind";
  // Exactly-once accounting: every submit landed in one terminal bucket.
  EXPECT_EQ(s.submitted, s.rejected_invalid + s.rejected_overload +
                             s.rejected_breaker + s.rejected_admit_fault +
                             s.expired_in_queue + s.completed_ok + s.failed);
  EXPECT_GT(s.rejected_overload, 0) << "the burst must overflow capacity 4";
  EXPECT_LE(s.max_queue_depth, static_cast<i64>(opts.queue_capacity));
  EXPECT_EQ(server.handles_leaked(), 0);
}

// ----------------------------------------------- shared runtime + cache

TEST(Server, ConcurrentDetectConfidenceRegionsShareRuntimeAndCache) {
  // Satellite of the serving story: host threads sharing one Runtime and
  // one FactorCache (the server's deployment shape for external callers)
  // serialise their engine epochs via Runtime::exclusive_epoch and must
  // agree bitwise. Runs at 1 and 2 workers; TSan covers it in CI.
  const SpatialProblem pb(5);
  const std::vector<double> mean(static_cast<std::size_t>(pb.n()), 0.0);
  core::CrdOptions opts;
  opts.threshold = 0.3;
  opts.alpha = 0.1;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 150;
  opts.pmvn.shifts = 4;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  const std::vector<core::CrdQuery> queries = {
      {0.3, 0.10, core::CrdDirection::kAbove, {}},
      {0.5, 0.05, core::CrdDirection::kAbove, {}},
  };

  for (const int workers : {1, 2}) {
    rt::Runtime rt(workers);
    engine::FactorCache cache(4);
    constexpr int kCallers = 4;
    std::vector<std::vector<core::CrdResult>> results(kCallers);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        results[static_cast<std::size_t>(c)] = core::detect_confidence_regions(
            rt, *pb.cov, mean, opts, queries, &cache);
      });
    }
    for (auto& t : callers) t.join();

    for (int c = 0; c < kCallers; ++c) {
      ASSERT_EQ(results[static_cast<std::size_t>(c)].size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const core::CrdResult& got = results[static_cast<std::size_t>(c)][q];
        const core::CrdResult& ref = results[0][q];
        ASSERT_TRUE(got.status.ok()) << got.status.message;
        EXPECT_EQ(got.region, ref.region);
        ASSERT_EQ(got.prefix_prob.size(), ref.prefix_prob.size());
        for (std::size_t i = 0; i < ref.prefix_prob.size(); ++i)
          EXPECT_EQ(got.prefix_prob[i], ref.prefix_prob[i]);
      }
    }
    EXPECT_EQ(rt.handles_leaked(), 0);
    EXPECT_GE(cache.stats().hits, 1) << "callers after the first must hit";
  }
}

// ---------------------------------------------------------------- hygiene

TEST(ServeHandleHygiene, NoRuntimeLeaksAcrossTheWholeSuite) {
  // Runs last in this file: every server and runtime above has been
  // drained/destroyed, so the process-wide leak ledger must be clean.
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
