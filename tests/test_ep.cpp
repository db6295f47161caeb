// Tiered evaluation: the EP screening estimator (src/ep/) and its wiring
// through the engine. Pinned contracts:
//
//  * the truncated-Gaussian moment kernel matches brute-force quadrature on
//    every branch (two-sided, one-sided, straddle, deep tails);
//  * n = 1 EP is exact: the screen's log-normaliser equals the true
//    log P(a <= X <= b) to near machine precision;
//  * EP agrees with a converged dense QMC reference well inside the default
//    ep_margin band at n = 64 and n = 256, on the final probability and on
//    every prefix row;
//  * a warm start from a converged state re-converges at least as fast as
//    the cold start and to the same fixed point;
//  * tiered detection never flips a region side versus the QMC-only sweep,
//    while actually retiring queries through the EP tier;
//  * tiered results are bitwise identical across worker counts (EP runs on
//    the host thread from deterministic factor bits; the QMC sub-batch
//    inherits the engine's schedule independence);
//  * the Vecchia arm screens through its observed-slot generative rows.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/pmvn_engine.hpp"
#include "ep/ep_screen.hpp"
#include "ep/truncated.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kWorkerMatrix[] = {1, 2, 8};

// Brute-force truncated moments of a standard normal on [alpha, beta]:
// composite Simpson over the effective support, accurate far beyond the
// tolerances below as long as the interval holds non-negligible mass.
ep::TruncatedMoments brute_moments(double alpha, double beta) {
  const double lo = std::max(alpha, -40.0);
  const double hi = std::min(beta, 40.0);
  const i64 steps = 400000;  // even
  const double h = (hi - lo) / static_cast<double>(steps);
  double z = 0.0, m1 = 0.0, m2 = 0.0;
  for (i64 i = 0; i <= steps; ++i) {
    const double x = lo + h * static_cast<double>(i);
    const double w = (i == 0 || i == steps) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    const double f = w * std::exp(-0.5 * x * x);
    z += f;
    m1 += f * x;
    m2 += f * x * x;
  }
  const double scale = h / 3.0 / std::sqrt(2.0 * 3.14159265358979323846);
  const double mass = z * scale;
  const double mean = m1 / z;
  const double var = m2 / z - mean * mean;
  return {std::log(mass), mean, var};
}

TEST(Truncated, MatchesBruteForceQuadrature) {
  const struct {
    double alpha, beta;
  } cases[] = {
      {-1.0, 1.0},   {-0.3, 2.5},  {0.5, 1.5},    {-2.0, -0.5}, {1.0, kInf},
      {-kInf, -1.2}, {-kInf, 0.7}, {-0.01, 0.01}, {3.0, 3.5},   {-3.5, -3.0},
      {0.0, kInf},   {-kInf, 0.0}, {-5.0, 5.0},   {2.0, 2.001},
  };
  for (const auto& c : cases) {
    const ep::TruncatedMoments got = ep::truncated_moments(c.alpha, c.beta);
    const ep::TruncatedMoments ref = brute_moments(c.alpha, c.beta);
    EXPECT_NEAR(got.logz, ref.logz, 1e-8) << c.alpha << " " << c.beta;
    EXPECT_NEAR(got.mean, ref.mean, 1e-7) << c.alpha << " " << c.beta;
    EXPECT_NEAR(got.var, ref.var, 1e-6) << c.alpha << " " << c.beta;
  }
}

TEST(Truncated, DeepTailStaysFiniteAndOrdered) {
  // Quadrature can't reach these, but the closed forms must stay finite,
  // inside the interval, and with variance in (0, 1].
  const struct {
    double alpha, beta;
  } cases[] = {{8.0, kInf}, {10.0, 11.0}, {-kInf, -9.0}, {35.0, 36.0}};
  for (const auto& c : cases) {
    const ep::TruncatedMoments got = ep::truncated_moments(c.alpha, c.beta);
    EXPECT_TRUE(std::isfinite(got.logz)) << c.alpha;
    EXPECT_LT(got.logz, 0.0);
    EXPECT_GE(got.mean, std::min(c.alpha, c.beta) - 1e-9);
    if (std::isfinite(c.beta)) EXPECT_LE(got.mean, c.beta + 1e-9);
    EXPECT_GT(got.var, 0.0);
    EXPECT_LE(got.var, 1.0 + 1e-12);
  }
}

struct Problem {
  geo::LocationSet locs;
  std::shared_ptr<stats::ExponentialKernel> kernel;

  explicit Problem(i64 side)
      : locs(geo::apply_permutation(
            geo::regular_grid(side, side),
            geo::morton_order(geo::regular_grid(side, side)))),
        kernel(std::make_shared<stats::ExponentialKernel>(1.0, 0.2)) {}
};

std::shared_ptr<const engine::CholeskyFactor> make_factor(
    rt::Runtime& rt, const geo::KernelCovGenerator& gen,
    engine::FactorKind kind, i64 tile) {
  const i64 n = gen.rows();
  std::vector<i64> identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), i64{0});
  engine::FactorSpec spec;
  spec.kind = kind;
  spec.tile = tile;
  spec.vecchia_m = 20;
  return std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor_ordered(rt, gen, identity, spec));
}

TEST(EpScreen, ExactInOneDimension) {
  const Problem pb(1);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-9);
  rt::Runtime rt(1);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 1);

  const struct {
    double a, b;
  } cases[] = {{-0.3, kInf}, {-kInf, 1.1}, {-1.0, 0.5}, {0.8, 2.0}};
  for (const auto& c : cases) {
    const std::vector<double> a = {c.a}, b = {c.b};
    const ep::EpResult res = ep::ep_screen(factor->backend(), a, b);
    const double lo = std::isinf(c.a) ? 0.0 : stats::norm_cdf(c.a);
    const double hi = std::isinf(c.b) ? 1.0 : stats::norm_cdf(c.b);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(std::exp(res.logz), hi - lo, 1e-10) << c.a << " " << c.b;
    ASSERT_EQ(res.prefix_logz.size(), 1u);
    EXPECT_DOUBLE_EQ(res.prefix_logz[0], res.logz);
  }
}

// EP against a converged dense QMC reference: the final probability and
// every prefix row must sit well inside the default ep_margin band — this
// is the calibration the tiered engine's retirement rule leans on.
void expect_ep_agreement(i64 side, double lower) {
  const Problem pb(side);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(4);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 32);

  const std::vector<double> a(static_cast<std::size_t>(n), lower);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const ep::EpResult ep_res = ep::ep_screen(factor->backend(), a, b);
  EXPECT_TRUE(ep_res.converged);
  ASSERT_EQ(static_cast<i64>(ep_res.prefix_logz.size()), n);
  // Monotone non-increasing prefix curve, by construction.
  for (i64 i = 1; i < n; ++i)
    EXPECT_LE(ep_res.prefix_logz[static_cast<std::size_t>(i)],
              ep_res.prefix_logz[static_cast<std::size_t>(i - 1)] + 1e-12);

  engine::EngineOptions qmc;
  qmc.samples_per_shift = 2000;
  qmc.shifts = 20;
  qmc.sampler = stats::SamplerKind::kRichtmyer;
  const engine::PmvnEngine eng(rt, factor, qmc);
  const engine::QueryResult ref =
      eng.evaluate_one({a, b, 20240517, /*prefix=*/true});

  const double band = 0.035;  // well inside the default ep_margin = 0.05
  EXPECT_NEAR(std::exp(ep_res.logz), ref.prob, band) << "n=" << n;
  for (i64 i = 0; i < n; ++i)
    EXPECT_NEAR(std::exp(ep_res.prefix_logz[static_cast<std::size_t>(i)]),
                ref.prefix_prob[static_cast<std::size_t>(i)], band)
        << "n=" << n << " row=" << i;
}

TEST(EpScreen, AgreesWithDenseQmcN64) { expect_ep_agreement(8, -0.4); }

TEST(EpScreen, AgreesWithDenseQmcN256) { expect_ep_agreement(16, 0.1); }

TEST(EpScreen, WarmStartConvergesToColdFixedPoint) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 32);

  const std::vector<double> a(static_cast<std::size_t>(n), -0.2);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  ep::EpState state;
  const ep::EpResult cold = ep::ep_screen(factor->backend(), a, b, {}, &state);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(state.valid_for(n));

  // Same limits, warm sites: the seed is the fixed point, so the single
  // damped sweep must certify — one pass, half the cold cost — and land on
  // the same answer.
  const ep::EpResult warm = ep::ep_screen(factor->backend(), a, b, {}, &state);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.sweeps, 1);
  EXPECT_NEAR(warm.logz, cold.logz, 1e-6);

  // Perturbed limits (a bisection neighbour): still converges — at worst
  // through the direct-solve fallback — and at the fresh cold-start answer
  // for the new limits (the fixed point is seed-independent).
  std::vector<double> a2(a);
  for (double& v : a2) v += 0.05;
  ep::EpState warm_state = state;
  const ep::EpResult nb_warm =
      ep::ep_screen(factor->backend(), a2, b, {}, &warm_state);
  const ep::EpResult nb_cold = ep::ep_screen(factor->backend(), a2, b);
  EXPECT_TRUE(nb_warm.converged);
  EXPECT_TRUE(nb_cold.converged);
  EXPECT_LE(nb_warm.sweeps, nb_cold.sweeps + 1);
  EXPECT_NEAR(nb_warm.logz, nb_cold.logz, 1e-8);
}

TEST(EpScreen, VecchiaArmScreensObservedSlots) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kVecchia, 16);
  ASSERT_FALSE(factor->backend().ep_latent_slots());

  const std::vector<double> a(static_cast<std::size_t>(n), -0.4);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const ep::EpResult ep_res = ep::ep_screen(factor->backend(), a, b);
  EXPECT_TRUE(ep_res.converged);

  engine::EngineOptions qmc;
  qmc.samples_per_shift = 2000;
  qmc.shifts = 20;
  qmc.sampler = stats::SamplerKind::kRichtmyer;
  const engine::PmvnEngine eng(rt, factor, qmc);
  const engine::QueryResult ref = eng.evaluate_one({a, b, 20240517, false});
  EXPECT_NEAR(std::exp(ep_res.logz), ref.prob, 0.035);
}

// ---- engine tiering ----

core::CrdOptions tiered_crd_options() {
  core::CrdOptions opts;
  opts.alpha = 0.1;
  opts.tile = 16;
  opts.pmvn.samples_per_shift = 200;
  opts.pmvn.shifts = 8;
  opts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  opts.pmvn.seed = 20240517;
  return opts;
}

std::vector<double> bump_mean(const geo::LocationSet& locs) {
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.5;
    const double dy = locs[i].y - 0.5;
    mean[i] = 1.6 * std::exp(-(dx * dx + dy * dy) / 0.08);
  }
  return mean;
}

std::vector<core::CrdQuery> threshold_ladder() {
  // A ladder spanning easy retires (extreme thresholds: prefix curves far
  // from 1 - alpha) and genuine straddlers near the region boundary.
  std::vector<core::CrdQuery> queries;
  for (const double u : {0.2, 0.5, 0.7, 0.8, 0.9, 1.2, 1.5})
    queries.push_back({u, 0.1, core::CrdDirection::kAbove, {}});
  return queries;
}

TEST(Tiered, NeverFlipsRegionSide) {
  const Problem pb(8);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const std::vector<double> mean = bump_mean(pb.locs);
  const std::vector<core::CrdQuery> queries = threshold_ladder();
  const core::CrdOptions opts = tiered_crd_options();

  rt::Runtime rt(4);
  const std::vector<core::CrdResult> qmc_only =
      core::detect_confidence_regions(rt, gen, mean, opts, queries);

  core::CrdOptions tiered = opts;
  tiered.pmvn.tiered = true;
  tiered.pmvn.adaptive = true;
  tiered.pmvn.abs_tol = 1e-3;
  const std::vector<core::CrdResult> got =
      core::detect_confidence_regions(rt, gen, mean, tiered, queries);

  ASSERT_EQ(got.size(), qmc_only.size());
  int ep_retired = 0;
  for (std::size_t qi = 0; qi < got.size(); ++qi) {
    if (got[qi].method == engine::EvalMethod::kEp) {
      ++ep_retired;
      EXPECT_EQ(got[qi].samples_used, 0) << "query=" << qi;
    }
    ASSERT_EQ(got[qi].region.size(), qmc_only[qi].region.size());
    EXPECT_EQ(got[qi].region_size, qmc_only[qi].region_size) << "query=" << qi;
    for (std::size_t i = 0; i < got[qi].region.size(); ++i)
      EXPECT_EQ(got[qi].region[i], qmc_only[qi].region[i])
          << "query=" << qi << " location=" << i;
  }
  // The tier must actually fire, or this test pins nothing.
  EXPECT_GE(ep_retired, 1);
  // And the straddling thresholds must still go through QMC.
  EXPECT_LT(ep_retired, static_cast<int>(got.size()));
}

std::vector<double> run_tiered(int workers, const Problem& pb,
                               const std::vector<double>& mean,
                               const std::vector<core::CrdQuery>& queries) {
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  core::CrdOptions opts = tiered_crd_options();
  opts.pmvn.tiered = true;
  opts.pmvn.adaptive = true;
  opts.pmvn.abs_tol = 1e-3;
  rt::Runtime rt(workers);
  const std::vector<core::CrdResult> results =
      core::detect_confidence_regions(rt, gen, mean, opts, queries);
  std::vector<double> flat;
  for (const core::CrdResult& r : results) {
    flat.push_back(static_cast<double>(r.method == engine::EvalMethod::kEp));
    flat.push_back(static_cast<double>(r.samples_used));
    flat.push_back(static_cast<double>(r.region_size));
    flat.insert(flat.end(), r.prefix_prob.begin(), r.prefix_prob.end());
    flat.insert(flat.end(), r.confidence.begin(), r.confidence.end());
  }
  return flat;
}

TEST(Tiered, BitwiseIdenticalAcrossWorkers) {
  const Problem pb(8);
  const std::vector<double> mean = bump_mean(pb.locs);
  const std::vector<core::CrdQuery> queries = threshold_ladder();

  const std::vector<double> reference = run_tiered(0, pb, mean, queries);
  for (const int workers : kWorkerMatrix) {
    const std::vector<double> got = run_tiered(workers, pb, mean, queries);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_DOUBLE_EQ(got[i], reference[i])
          << "tiered drifted, workers=" << workers << " value=" << i;
  }
}

TEST(Tiered, OffReproducesQmcPathBitwise) {
  // tiered == false must be the untouched engine; and a tiered engine must
  // hand decision-free queries to QMC untouched (batch transparency).
  const Problem pb(6);
  const geo::KernelCovGenerator gen(pb.locs, pb.kernel, 1e-6);
  const i64 n = gen.rows();
  rt::Runtime rt(2);
  const auto factor = make_factor(rt, gen, engine::FactorKind::kDense, 16);

  engine::EngineOptions base;
  base.samples_per_shift = 200;
  base.shifts = 4;
  base.sampler = stats::SamplerKind::kRichtmyer;
  engine::EngineOptions tiered = base;
  tiered.tiered = true;

  const std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  const std::vector<double> b(static_cast<std::size_t>(n), kInf);
  const engine::LimitSet q{a, b, 20240517, /*prefix=*/true};  // no decision

  const engine::QueryResult plain =
      engine::PmvnEngine(rt, factor, base).evaluate_one(q);
  const engine::QueryResult via_tiered =
      engine::PmvnEngine(rt, factor, tiered).evaluate_one(q);
  EXPECT_EQ(plain.method, engine::EvalMethod::kQmc);
  EXPECT_EQ(via_tiered.method, engine::EvalMethod::kQmc);
  EXPECT_DOUBLE_EQ(plain.prob, via_tiered.prob);
  EXPECT_DOUBLE_EQ(plain.error3sigma, via_tiered.error3sigma);
  ASSERT_EQ(plain.prefix_prob.size(), via_tiered.prefix_prob.size());
  for (std::size_t i = 0; i < plain.prefix_prob.size(); ++i)
    EXPECT_DOUBLE_EQ(plain.prefix_prob[i], via_tiered.prefix_prob[i]);
}

// Satellite of the failure-domain hardening PR: no runtime in this suite
// may have leaked a tile-handle slot through HandleLease::release().
TEST(HandleHygiene, NoHandleLeakedAcrossTheWholeSuite) {
  EXPECT_EQ(rt::Runtime::total_handles_leaked(), 0);
}

}  // namespace
