#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/microkernel.hpp"

namespace parmvn::la {

SvdResult svd_jacobi(ConstMatrixView a) {
  // Work on the tall orientation; swap U and V back at the end if needed.
  const bool transposed = a.rows < a.cols;
  const i64 m = transposed ? a.cols : a.rows;
  const i64 n = transposed ? a.rows : a.cols;

  // Each column of `work` stacks the iterate (rows 0..m-1) on top of the
  // accumulated right rotations V (rows m..m+n-1), so one rotation call
  // updates both.
  Matrix work(m + n, n);
  MatrixView w = work.view();
  if (transposed) {
    transpose_into(a, w.sub(0, 0, m, n));
  } else {
    copy_into(a, w.sub(0, 0, m, n));
  }
  for (i64 j = 0; j < n; ++j) w(m + j, j) = 1.0;

  // Cyclic one-sided Jacobi: orthogonalise column pairs until all rotations
  // in a sweep are negligible. The squared column norms are computed once
  // per sweep and carried through each rotation (app - t apq, aqq + t apq);
  // a norm that shrinks by more than kRecompute is recomputed, since the
  // update then cancels. Only apq needs a dot product per pair.
  //
  // A column whose squared norm is at or below (eps ||A||_F)^2 is
  // numerically zero: it takes part in no rotation, and comes out with
  // sigma = 0 and a zero U column. Rotating it would not change any other
  // column beyond rounding, and ||A||_F is invariant under the rotations.
  const double tol = 1e-15;
  const int max_sweeps = 60;
  constexpr double kRecompute = 1e-8;
  std::vector<double> norm2(static_cast<std::size_t>(n));
  auto col_norm2 = [&](i64 j) { return dot(m, w.col(j), w.col(j)); };
  double fro2 = 0.0;
  for (i64 j = 0; j < n; ++j) fro2 += col_norm2(j);
  const double eps = std::numeric_limits<double>::epsilon();
  const double negligible = eps * eps * fro2;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    for (i64 j = 0; j < n; ++j)
      norm2[static_cast<std::size_t>(j)] = col_norm2(j);
    bool rotated = false;
    for (i64 p = 0; p < n - 1; ++p) {
      for (i64 q = p + 1; q < n; ++q) {
        double& app = norm2[static_cast<std::size_t>(p)];
        double& aqq = norm2[static_cast<std::size_t>(q)];
        if (app <= negligible || aqq <= negligible) continue;
        const double apq = dot(m, w.col(p), w.col(q));
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0)
          continue;
        rotated = true;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        detail::rot_simd(m + n, w.col(p), w.col(q), c, c * t);
        const double app_new = app - t * apq;
        const double aqq_new = aqq + t * apq;
        app = (app_new < kRecompute * app) ? col_norm2(p) : app_new;
        aqq = (aqq_new < kRecompute * aqq) ? col_norm2(q) : aqq_new;
      }
    }
    if (!rotated) break;
  }

  // Singular values = column norms (recomputed, not carried); U = the
  // normalised columns, in descending order of sigma.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (i64 j = 0; j < n; ++j) {
    const double c2 = col_norm2(j);
    sigma[static_cast<std::size_t>(j)] =
        (c2 <= negligible) ? 0.0 : std::sqrt(c2);
  }
  std::vector<i64> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), i64{0});
  std::sort(order.begin(), order.end(), [&](i64 x, i64 y) {
    return sigma[static_cast<std::size_t>(x)] > sigma[static_cast<std::size_t>(y)];
  });
  SvdResult out;
  out.sigma.resize(static_cast<std::size_t>(n));
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (i64 j = 0; j < n; ++j) {
    const i64 src = order[static_cast<std::size_t>(j)];
    const double s = sigma[static_cast<std::size_t>(src)];
    out.sigma[static_cast<std::size_t>(j)] = s;
    const double inv = (s > 0.0) ? 1.0 / s : 0.0;
    const double* cj = w.col(src);
    for (i64 i = 0; i < m; ++i) out.u(i, j) = cj[i] * inv;
    for (i64 i = 0; i < n; ++i) out.v(i, j) = cj[m + i];
  }

  if (transposed) std::swap(out.u, out.v);
  return out;
}

i64 truncation_rank_sv(const std::vector<double>& sigma, double threshold) {
  PARMVN_EXPECTS(!sigma.empty());
  i64 rank = 0;
  for (const double s : sigma) {
    if (s >= threshold) ++rank;
  }
  return std::max<i64>(rank, 1);
}

i64 truncation_rank(const std::vector<double>& sigma, double tol_fro) {
  PARMVN_EXPECTS(!sigma.empty());
  const i64 k = static_cast<i64>(sigma.size());
  // tail_sq[r] = sum_{i >= r} sigma_i^2; pick the smallest r with
  // tail_sq[r] <= tol^2.
  double tail_sq = 0.0;
  const double tol_sq = tol_fro * tol_fro;
  i64 rank = k;
  for (i64 r = k; r >= 1; --r) {
    const double s = sigma[static_cast<std::size_t>(r - 1)];
    if (tail_sq + s * s > tol_sq) break;
    tail_sq += s * s;
    rank = r - 1;
  }
  return std::max<i64>(rank, 1);
}

}  // namespace parmvn::la
