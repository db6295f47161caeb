// Tests for the parallel tile PMVN (Algorithm 2) through its one evaluate
// path, engine::PmvnEngine over a CholeskyFactor: equivalence with the
// sequential SOV oracle, dense/TLR agreement, determinism across thread
// counts and tile sizes, prefix-sweep semantics, and closed forms in
// moderate dimension.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/sov.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"

namespace {

using namespace parmvn;
using engine::EngineOptions;
using engine::FactorKind;
using engine::QueryResult;
using la::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix equicorrelated(i64 n, double rho) {
  Matrix s(n, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < n; ++i) s(i, j) = (i == j) ? 1.0 : rho;
  return s;
}

// Engine over the factor of `gen` built with `spec`.
engine::PmvnEngine make_engine(rt::Runtime& rt, const la::MatrixGenerator& gen,
                               const engine::FactorSpec& spec,
                               const EngineOptions& opts = {}) {
  return {rt,
          std::make_shared<const engine::CholeskyFactor>(
              engine::CholeskyFactor::factor(rt, gen, spec)),
          opts};
}

// Engine over the dense tiled Cholesky factor of `sigma`.
engine::PmvnEngine dense_engine(rt::Runtime& rt, const Matrix& sigma, i64 nb,
                                const EngineOptions& opts = {}) {
  return make_engine(rt, la::DenseGenerator(sigma), {FactorKind::kDense, nb},
                     opts);
}

TEST(PmvnDense, MatchesSequentialOracleExactly) {
  // Same PointSet parameters => identical w values => the tile algorithm
  // computes the same chains as the sequential reference (up to FP
  // reassociation in the GEMM propagation).
  const i64 n = 60;
  Matrix sigma = equicorrelated(n, 0.45);
  std::vector<double> a(static_cast<std::size_t>(n), -0.4);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);

  core::SovOptions seq;
  seq.samples_per_shift = 500;
  seq.shifts = 8;
  seq.sampler = stats::SamplerKind::kRichtmyer;
  seq.seed = 11;
  Matrix l_dense = la::to_matrix(sigma.view());
  la::potrf_lower_or_throw(l_dense.view());
  const core::SovResult expect =
      core::mvn_probability_chol(l_dense.view(), a, b, seq);

  rt::Runtime rt(4);
  EngineOptions opts;
  opts.samples_per_shift = 500;
  opts.shifts = 8;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  const QueryResult got =
      dense_engine(rt, sigma, 16, opts).evaluate_one({a, b, 11});

  EXPECT_NEAR(got.prob / expect.prob, 1.0, 1e-8);
  EXPECT_NEAR(got.error3sigma, expect.error3sigma,
              1e-6 + 0.01 * expect.error3sigma);
}

TEST(PmvnDense, DeterministicAcrossThreadCounts) {
  const i64 n = 48;
  Matrix sigma = equicorrelated(n, 0.3);
  std::vector<double> a(static_cast<std::size_t>(n), -1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 0.8);
  EngineOptions opts;
  opts.samples_per_shift = 250;
  opts.shifts = 4;

  double reference = 0.0;
  for (int threads : {0, 1, 2, 8}) {
    rt::Runtime rt(threads);
    const QueryResult r = dense_engine(rt, sigma, 16, opts).evaluate_one({a, b});
    if (threads == 0) {
      reference = r.prob;
    } else {
      EXPECT_DOUBLE_EQ(r.prob, reference)
          << "task arithmetic must be schedule-independent, threads="
          << threads;
    }
  }
}

TEST(PmvnDense, TileSizeOnlyPerturbsRounding) {
  const i64 n = 72;
  Matrix sigma = equicorrelated(n, 0.5);
  std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  EngineOptions opts;
  opts.samples_per_shift = 400;
  opts.shifts = 5;
  double first = -1.0;
  for (i64 nb : {8, 24, 36, 72}) {
    rt::Runtime rt(4);
    const QueryResult r = dense_engine(rt, sigma, nb, opts).evaluate_one({a, b});
    if (first < 0) {
      first = r.prob;
    } else {
      EXPECT_NEAR(r.prob / first, 1.0, 1e-7) << "nb=" << nb;
    }
  }
}

TEST(PmvnDense, ExchangeableHalfCorrelationOrthantHighDim) {
  // 1/(n+1) identity at n = 64: a genuinely multivariate closed form.
  const i64 n = 64;
  Matrix sigma = equicorrelated(n, 0.5);
  std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  rt::Runtime rt(4);
  EngineOptions opts;
  opts.samples_per_shift = 2500;
  opts.shifts = 20;
  opts.sampler = stats::SamplerKind::kRichtmyer;
  const QueryResult r = dense_engine(rt, sigma, 32, opts).evaluate_one({a, b});
  const double expect = 1.0 / 65.0;
  EXPECT_NEAR(r.prob / expect, 1.0, 0.05);
  EXPECT_LT(std::fabs(r.prob - expect), 3.0 * r.error3sigma + 0.002 * expect);
}

TEST(PmvnDense, IndependenceProductExact) {
  const i64 n = 40;
  Matrix sigma(n, n);
  std::vector<double> a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  double expect = 1.0;
  for (i64 i = 0; i < n; ++i) {
    sigma(i, i) = 1.0;
    a[static_cast<std::size_t>(i)] = -0.8;
    b[static_cast<std::size_t>(i)] = 1.2;
    expect *= stats::norm_cdf_diff(-0.8, 1.2);
  }
  rt::Runtime rt(2);
  const QueryResult r = dense_engine(rt, sigma, 16).evaluate_one({a, b});
  EXPECT_NEAR(r.prob / expect, 1.0, 1e-10)
      << "independent case is exact for every sample";
}

TEST(PmvnDense, PrefixSweepMatchesFullProbabilities) {
  const i64 n = 36;
  Matrix sigma = equicorrelated(n, 0.4);
  std::vector<double> a(static_cast<std::size_t>(n), -0.3);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);
  rt::Runtime rt(4);
  EngineOptions opts;
  opts.samples_per_shift = 300;
  opts.shifts = 4;
  const engine::PmvnEngine eng = dense_engine(rt, sigma, 12, opts);
  const QueryResult r = eng.evaluate_one({a, b, 42, /*prefix=*/true});
  ASSERT_EQ(static_cast<i64>(r.prefix_prob.size()), n);
  // Monotone non-increasing; last equals the total probability.
  for (std::size_t i = 1; i < r.prefix_prob.size(); ++i)
    EXPECT_LE(r.prefix_prob[i], r.prefix_prob[i - 1] + 1e-12);
  EXPECT_NEAR(r.prefix_prob.back(), r.prob, 1e-12);
  // First equals the exact marginal.
  EXPECT_NEAR(r.prefix_prob.front(), 1.0 - stats::norm_cdf(-0.3), 1e-12);

  // Prefix k must equal a separate PMVN run with limits only on the first k
  // coordinates (the remaining dimensions contribute an exact factor 1).
  for (i64 k : {i64{9}, i64{23}}) {
    std::vector<double> a_partial(static_cast<std::size_t>(n), -kInf);
    for (i64 i = 0; i < k; ++i) a_partial[static_cast<std::size_t>(i)] = -0.3;
    const QueryResult sub = eng.evaluate_one({a_partial, b});
    EXPECT_NEAR(sub.prob, r.prefix_prob[static_cast<std::size_t>(k - 1)], 1e-12)
        << "k=" << k;
  }
}

TEST(PmvnDense, SmallPanelBytesStillExact) {
  // Force many column panels; panelling must not change the estimate at all.
  const i64 n = 30;
  Matrix sigma = equicorrelated(n, 0.25);
  std::vector<double> a(static_cast<std::size_t>(n), -0.5);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  rt::Runtime rt(2);
  EngineOptions big;
  big.samples_per_shift = 200;
  big.shifts = 5;
  EngineOptions tiny = big;
  tiny.panel_bytes = 1;  // floor: one tile-column per panel
  const double p_big = dense_engine(rt, sigma, 10, big).evaluate_one({a, b}).prob;
  const double p_tiny =
      dense_engine(rt, sigma, 10, tiny).evaluate_one({a, b}).prob;
  EXPECT_DOUBLE_EQ(p_big, p_tiny);
}

TEST(PmvnTlr, ConvergesToDenseAsToleranceTightens) {
  // Spatial covariance (Morton-ordered grid) so TLR compression is honest.
  geo::LocationSet locs = geo::regular_grid(14, 14);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.15);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  const i64 n = gen.rows();
  std::vector<double> a(static_cast<std::size_t>(n), -0.25);
  std::vector<double> b(static_cast<std::size_t>(n), kInf);

  rt::Runtime rt(4);
  EngineOptions opts;
  opts.samples_per_shift = 400;
  opts.shifts = 5;

  const double p_dense =
      make_engine(rt, gen, {FactorKind::kDense, 49}, opts).evaluate_one({a, b}).prob;

  double prev_gap = 1.0;
  for (double tol : {1e-2, 1e-4, 1e-8}) {
    const double p_tlr = make_engine(rt, gen, {FactorKind::kTlr, 49, tol, -1}, opts)
                             .evaluate_one({a, b})
                             .prob;
    const double gap = std::fabs(p_tlr - p_dense) / p_dense;
    EXPECT_LE(gap, prev_gap * 1.5 + 1e-9) << "tol=" << tol;
    prev_gap = gap;
    if (tol <= 1e-8) EXPECT_LT(gap, 1e-5);
  }
}

TEST(PmvnTlr, PrefixSweepWorksInTlrMode) {
  geo::LocationSet locs = geo::regular_grid(10, 10);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.2);
  const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
  rt::Runtime rt(2);
  std::vector<double> a(100, 0.0), b(100, kInf);
  EngineOptions opts;
  opts.samples_per_shift = 250;
  opts.shifts = 4;
  const QueryResult r = make_engine(rt, gen, {FactorKind::kTlr, 25, 1e-6, -1}, opts)
                            .evaluate_one({a, b, 42, /*prefix=*/true});
  ASSERT_EQ(r.prefix_prob.size(), 100u);
  for (std::size_t i = 1; i < 100; ++i)
    EXPECT_LE(r.prefix_prob[i], r.prefix_prob[i - 1] + 1e-12);
  EXPECT_NEAR(r.prefix_prob.back(), r.prob, 1e-12);
}

TEST(Pmvn, RejectsShapeMismatch) {
  rt::Runtime rt(1);
  Matrix sigma = equicorrelated(8, 0.2);
  std::vector<double> short_a(4, 0.0), b(8, kInf);
  EXPECT_THROW((void)dense_engine(rt, sigma, 4).evaluate_one({short_a, b}),
               Error);
}

TEST(Pmvn, NonSquareMatrixRejected) {
  rt::Runtime rt(1);
  EXPECT_THROW((void)dense_engine(rt, Matrix(8, 6), 4), Error);
}

}  // namespace
