// Microbenchmarks (google-benchmark) of the hot kernels: dense BLAS-3, the
// QMC tile kernel, tile compression, the scalar normal functions and the
// Matern covariance entry. These are the quantities the distributed cost
// model is calibrated against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/qmc_kernel.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "geo/wind.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "linalg/qr.hpp"
#include "stats/bessel.hpp"
#include "stats/covariance.hpp"
#include "stats/normal.hpp"
#include "stats/qmc.hpp"
#include "stats/rng.hpp"
#include "tlr/lr_tile.hpp"

namespace {

using namespace parmvn;

la::Matrix random_matrix(i64 m, i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  la::Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = g.next_normal();
  return a;
}

la::Matrix spd_lower(i64 n) {
  la::Matrix a = random_matrix(n, n, 3);
  la::Matrix s(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, a.view(), a.view(), 0.0,
           s.view());
  for (i64 i = 0; i < n; ++i) s(i, i) += static_cast<double>(n);
  la::potrf_lower_or_throw(s.view());
  return s;
}

void BM_gemm(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix a = random_matrix(nb, nb, 1);
  const la::Matrix b = random_matrix(nb, nb, 2);
  la::Matrix c(nb, nb);
  for (auto _ : state) {
    la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, a.view(), b.view(), 1.0,
             c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm)->Arg(128)->Arg(256)->Arg(512);

// The seed's unblocked axpy-sweep GEMM (four C columns per pass), kept as
// the baseline for the blocked/register-tiled kernel that replaced it —
// modulo the column-remainder `if (blj == 0.0) continue;` zero-skip, a
// NaN-propagation bug fixed in PR 2 (perf-neutral on random bench data).
// BM_gemm vs BM_gemm_axpy_seed at equal sizes is the before/after series
// for la::gemm.
void gemm_axpy_seed(double alpha, la::ConstMatrixView a, la::ConstMatrixView b,
                    la::MatrixView c) {
  const i64 m = c.rows;
  const i64 n = c.cols;
  const i64 k = a.cols;
  i64 j = 0;
  for (; j + 4 <= n; j += 4) {
    double* __restrict c0 = c.col(j);
    double* __restrict c1 = c.col(j + 1);
    double* __restrict c2 = c.col(j + 2);
    double* __restrict c3 = c.col(j + 3);
    for (i64 l = 0; l < k; ++l) {
      const double* __restrict al = a.col(l);
      const double b0 = alpha * b(l, j);
      const double b1 = alpha * b(l, j + 1);
      const double b2 = alpha * b(l, j + 2);
      const double b3 = alpha * b(l, j + 3);
      for (i64 i = 0; i < m; ++i) {
        const double ai = al[i];
        c0[i] += b0 * ai;
        c1[i] += b1 * ai;
        c2[i] += b2 * ai;
        c3[i] += b3 * ai;
      }
    }
  }
  for (; j < n; ++j) {
    double* __restrict cj = c.col(j);
    for (i64 l = 0; l < k; ++l) {
      const double blj = alpha * b(l, j);
      const double* __restrict al = a.col(l);
      for (i64 i = 0; i < m; ++i) cj[i] += blj * al[i];
    }
  }
}

void BM_gemm_axpy_seed(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix a = random_matrix(nb, nb, 1);
  const la::Matrix b = random_matrix(nb, nb, 2);
  la::Matrix c(nb, nb);
  for (auto _ : state) {
    gemm_axpy_seed(1.0, a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm_axpy_seed)->Arg(128)->Arg(256)->Arg(512);

void BM_potrf(benchmark::State& state) {
  const i64 nb = state.range(0);
  la::Matrix a = random_matrix(nb, nb, 4);
  la::Matrix s(nb, nb);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1.0, a.view(), a.view(), 0.0,
           s.view());
  for (i64 i = 0; i < nb; ++i) s(i, i) += static_cast<double>(nb);
  for (auto _ : state) {
    la::Matrix work = la::to_matrix(s.view());
    la::potrf_lower_or_throw(work.view());
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      nb * nb * nb / 3.0 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_potrf)->Arg(128)->Arg(256)->Arg(512);

void BM_trsm(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix l = spd_lower(nb);
  const la::Matrix b0 = random_matrix(nb, nb, 5);
  for (auto _ : state) {
    la::Matrix b = la::to_matrix(b0.view());
    la::trsm(la::Side::kRight, la::Trans::kYes, 1.0, l.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_trsm)->Arg(128)->Arg(256);

// The sample-contiguous panel sweep (rows = samples); square nb x nb panels,
// so the counter is integrand entries (chain steps x samples) per second.
// bench_qmc_sweep has the full before/after series against the seed's
// sample-major scalar kernel.
void BM_qmc_kernel(benchmark::State& state) {
  const i64 nb = state.range(0);
  const la::Matrix l = spd_lower(nb);
  const stats::PointSet pts(stats::SamplerKind::kPseudoMC, nb, nb, 1, 7);
  la::Matrix a(nb, nb), b(nb, nb), y(nb, nb);
  for (i64 j = 0; j < nb; ++j)
    for (i64 i = 0; i < nb; ++i) {
      a(i, j) = -1.0;
      b(i, j) = 1.0;
    }
  std::vector<double> p(static_cast<std::size_t>(nb), 1.0);
  for (auto _ : state) {
    std::fill(p.begin(), p.end(), 1.0);
    core::qmc_tile_kernel(l.view(), pts, 0, 0, a.view(), b.view(), y.view(),
                          p.data(), nullptr);
    benchmark::DoNotOptimize(p.data());
  }
  state.counters["entries/s"] = benchmark::Counter(
      static_cast<double>(nb * nb) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_qmc_kernel)->Arg(128)->Arg(256)->Arg(512);

void BM_norm_cdf_batch(benchmark::State& state) {
  const i64 n = 4096;
  std::vector<double> x(static_cast<std::size_t>(n)), out(
      static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = -4.0 + 8.0 * static_cast<double>(i) /
                                                static_cast<double>(n);
  for (auto _ : state) {
    stats::norm_cdf_batch(n, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_norm_cdf_batch);

void BM_norm_quantile_batch(benchmark::State& state) {
  const i64 n = 4096;
  std::vector<double> p(static_cast<std::size_t>(n)), out(
      static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  for (auto _ : state) {
    stats::norm_quantile_batch(n, p.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["values/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_norm_quantile_batch);

void BM_compress_block(benchmark::State& state) {
  const i64 nb = state.range(0);
  geo::LocationSet locs = geo::regular_grid(32, 32);
  locs = geo::apply_permutation(locs, geo::morton_order(locs));
  auto kernel = std::make_shared<stats::MaternKernel>(1.0, 0.4, 0.5);
  const geo::KernelCovGenerator gen(locs, kernel, 0.0);
  la::Matrix block(nb, nb);
  gen.fill(nb, 0, block.view());
  for (auto _ : state) {
    const tlr::LowRankTile t = tlr::compress_block(block.view(), 1e-3, -1);
    benchmark::DoNotOptimize(t.rank());
  }
}
BENCHMARK(BM_compress_block)->Arg(128)->Arg(256);

// Orthonormal m x k basis from the QR of a random matrix.
la::Matrix random_orthonormal(i64 m, i64 k, u64 seed) {
  la::Matrix a = random_matrix(m, k, seed);
  std::vector<double> tau;
  la::householder_qr(a.view(), tau);
  return la::form_q_thin(a.view(), tau, k);
}

// The TLR GEMM update's recompression (tlr_potrf's tlr_gemm task) on a
// 400-row tile. The input is U V^T = Q_a diag(sigma) Q_b^T written through a
// random orthogonal mixing Z (U = Q_a diag(sigma) Z, V = Q_b Z), so neither
// factor has orthogonal columns; sigma decays geometrically from 1 to 1e-6
// over r_in components with no sigma on the 1e-3 accuracy threshold, so the
// rule keeps exactly r_in / 2.
void BM_lr_recompress(benchmark::State& state) {
  const i64 m = 400;
  const i64 r = state.range(0);
  const la::Matrix qa = random_orthonormal(m, r, 11);
  const la::Matrix qb = random_orthonormal(m, r, 12);
  const la::Matrix z = random_orthonormal(r, r, 13);
  la::Matrix qa_sigma = la::to_matrix(qa.view());
  for (i64 j = 0; j < r; ++j) {
    const double sigma = std::pow(
        10.0, -6.0 * static_cast<double>(j) / static_cast<double>(r - 1));
    for (i64 i = 0; i < m; ++i) qa_sigma(i, j) *= sigma;
  }
  tlr::LowRankTile t{la::Matrix(m, r), la::Matrix(m, r)};
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, qa_sigma.view(), z.view(), 0.0,
           t.u.view());
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, qb.view(), z.view(), 0.0,
           t.v.view());
  i64 kept = 0;
  for (auto _ : state) {
    const tlr::LowRankTile out = tlr::recompress(t, 1e-3, -1);
    kept = out.rank();
    benchmark::DoNotOptimize(out.u.data());
  }
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_lr_recompress)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_norm_cdf(benchmark::State& state) {
  double x = -4.0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::norm_cdf(x);
    x += 1e-5;
    if (x > 4.0) x = -4.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_norm_cdf);

void BM_norm_quantile(benchmark::State& state) {
  double p = 1e-6;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::norm_quantile(p);
    p += 1e-7;
    if (p > 1.0 - 1e-6) p = 1e-6;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_norm_quantile);

void BM_bessel_k(benchmark::State& state) {
  double x = 0.1;
  double acc = 0.0;
  for (auto _ : state) {
    acc += stats::bessel_k(1.43391, x);
    x += 1e-4;
    if (x > 20.0) x = 0.1;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_bessel_k);

// Distances of one off-diagonal 400 x 400 tile of the wind TLR problem: the
// 80 x 60 unit-square grid in descending mean-wind order (the excursion
// ordering's shape), rows 400..799 against columns 0..399.
std::vector<double> wind_tile_distances() {
  const geo::LocationSet locs = geo::regular_grid(80, 60);
  std::vector<i64> order(locs.size());
  std::iota(order.begin(), order.end(), i64{0});
  std::stable_sort(order.begin(), order.end(), [&](i64 a, i64 b) {
    const geo::Point& pa = locs[static_cast<std::size_t>(a)];
    const geo::Point& pb = locs[static_cast<std::size_t>(b)];
    return geo::wind_mean_speed(pa.x, pa.y) > geo::wind_mean_speed(pb.x, pb.y);
  });
  std::vector<double> d;
  d.reserve(400 * 400);
  for (i64 j = 0; j < 400; ++j)
    for (i64 i = 400; i < 800; ++i) {
      const geo::Point& p = locs[static_cast<std::size_t>(order[i])];
      const geo::Point& q = locs[static_cast<std::size_t>(order[j])];
      d.push_back(std::hypot(p.x - q.x, p.y - q.y));
    }
  return d;
}

// The wind field's Matern entry (sigma2 1.2, range 0.08, nu 1.43391) over
// that tile's distances; z_gt_2 is the share of entries with d / range > 2.
void BM_matern(benchmark::State& state) {
  const geo::WindOptions wind;
  const stats::MaternKernel kernel(wind.gp_sigma2, wind.gp_range,
                                   wind.gp_smoothness);
  const std::vector<double> d = wind_tile_distances();
  double acc = 0.0;
  for (auto _ : state) {
    for (const double x : d) acc += kernel(x);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["entries/s"] = benchmark::Counter(
      static_cast<double>(d.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["z_gt_2"] = static_cast<double>(std::count_if(
      d.begin(), d.end(), [&](double x) { return x / wind.gp_range > 2.0; })) /
      static_cast<double>(d.size());
}
BENCHMARK(BM_matern)->Unit(benchmark::kMillisecond);

// Kernel construction for a non-half-integer nu (the argument, in units of
// 1e-5): the cost every likelihood evaluation of the Matern MLE pays once.
void BM_matern_build(benchmark::State& state) {
  const geo::WindOptions wind;
  const double nu = 1e-5 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    const stats::MaternKernel kernel(wind.gp_sigma2, wind.gp_range, nu);
    benchmark::DoNotOptimize(kernel.smoothness());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_matern_build)->Arg(143391)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
