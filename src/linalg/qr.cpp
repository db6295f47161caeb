#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"

namespace parmvn::la {

namespace {

// Generate a Householder reflector for x = (alpha, rest...) of length len:
// H x = (beta, 0...). Returns tau; x is overwritten with v (v[0]=1 implied,
// stored from index 1) and x[0] = beta.
double make_reflector(double* x, i64 len) {
  if (len <= 1) return 0.0;
  double xnorm = 0.0;
  for (i64 i = 1; i < len; ++i) xnorm += x[i] * x[i];
  if (xnorm == 0.0) return 0.0;
  const double alpha = x[0];
  double beta = -std::copysign(std::sqrt(alpha * alpha + xnorm), alpha);
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (i64 i = 1; i < len; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

// Apply H = I - tau v v^T (v packed under column j of `a`, v0 = 1) to the
// columns a(j:, j+1:col_end).
void apply_reflector(MatrixView a, i64 j, double tau, i64 col_end) {
  const i64 m = a.rows;
  if (tau == 0.0) return;
  const double* __restrict v = a.col(j) + j;  // v[0] is beta; treat as 1
  for (i64 c = j + 1; c < col_end; ++c) {
    double* __restrict col = a.col(c) + j;
    double s = col[0];
    for (i64 i = 1; i < m - j; ++i) s += v[i] * col[i];
    s *= tau;
    col[0] -= s;
    for (i64 i = 1; i < m - j; ++i) col[i] -= s * v[i];
  }
}

// Reflectors per compact-WY block: the blocked QR factors panels of this
// many columns unblocked, then updates the trailing columns (and apply_q
// applies whole blocks) with GEMMs. 16 was the fastest of 8..64 for the
// recompression shapes (400 x 64..256).
constexpr i64 kQrBlock = 16;

// Compact-WY form H_j0 H_j0+1 ... H_j0+jb-1 = I - V T V^T of jb consecutive
// reflectors stored dgeqrf-style in qr(j0:, j0:j0+jb) (LAPACK dlarft,
// forward/columnwise): V is unit lower trapezoidal, T upper triangular.
struct BlockReflector {
  Matrix v;  // (m - j0) x jb
  Matrix t;  // jb x jb
};

BlockReflector block_reflector(ConstMatrixView qr, const double* tau, i64 j0,
                               i64 jb) {
  const i64 rows = qr.rows - j0;
  BlockReflector br{Matrix(rows, jb), Matrix(jb, jb)};
  for (i64 j = 0; j < jb; ++j) {
    const double* src = qr.col(j0 + j) + j0;
    br.v(j, j) = 1.0;
    for (i64 i = j + 1; i < rows; ++i) br.v(i, j) = src[i];
  }
  // T(j, j) = tau_j, T(0:j, j) = -tau_j T(0:j, 0:j) V(:, 0:j)^T v_j, with the
  // inner products taken from the Gram matrix (lower triangle of V^T V).
  Matrix g(jb, jb);
  syrk(Trans::kYes, 1.0, br.v.view(), 0.0, g.view());
  for (i64 j = 0; j < jb; ++j) {
    const double tj = tau[j];
    br.t(j, j) = tj;
    for (i64 i = 0; i < j; ++i) {
      double s = 0.0;
      for (i64 l = i; l < j; ++l) s += br.t(i, l) * g(j, l);
      br.t(i, j) = -tj * s;
    }
  }
  return br;
}

// c <- (I - V op(T) V^T) c: op(T) = T applies the block, T^T its transpose.
void apply_block(const BlockReflector& br, Trans trans_t, MatrixView c) {
  const i64 jb = br.t.rows();
  Matrix vtc(jb, c.cols);
  gemm(Trans::kYes, Trans::kNo, 1.0, br.v.view(), c, 0.0, vtc.view());
  Matrix tvtc(jb, c.cols);
  gemm(trans_t, Trans::kNo, 1.0, br.t.view(), vtc.view(), 0.0, tvtc.view());
  gemm(Trans::kNo, Trans::kNo, -1.0, br.v.view(), tvtc.view(), 1.0, c);
}

}  // namespace

void householder_qr(MatrixView a, std::vector<double>& tau) {
  const i64 k = std::min(a.rows, a.cols);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  for (i64 j0 = 0; j0 < k; j0 += kQrBlock) {
    const i64 jb = std::min(kQrBlock, k - j0);
    // Unblocked panel factorisation of a(j0:, j0:j0+jb).
    for (i64 j = j0; j < j0 + jb; ++j) {
      double& tj = tau[static_cast<std::size_t>(j)];
      tj = make_reflector(a.col(j) + j, a.rows - j);
      apply_reflector(a, j, tj, j0 + jb);
    }
    // Trailing update: a(j0:, j0+jb:) <- H^T a(j0:, j0+jb:) with
    // H^T = I - V T^T V^T.
    const i64 trail = a.cols - (j0 + jb);
    if (trail > 0) {
      const BlockReflector br = block_reflector(a, tau.data() + j0, j0, jb);
      apply_block(br, Trans::kYes, a.sub(j0, j0 + jb, a.rows - j0, trail));
    }
  }
}

void apply_q(ConstMatrixView qr, const std::vector<double>& tau, MatrixView c) {
  const i64 k = static_cast<i64>(tau.size());
  PARMVN_EXPECTS(k <= std::min(qr.rows, qr.cols));
  PARMVN_EXPECTS(c.rows == qr.rows);
  if (k == 0 || c.cols == 0) return;
  // Q = H_0 H_1 ... H_{k-1}: apply the blocks last to first.
  for (i64 j0 = ((k - 1) / kQrBlock) * kQrBlock; j0 >= 0; j0 -= kQrBlock) {
    const i64 jb = std::min(kQrBlock, k - j0);
    const BlockReflector br = block_reflector(qr, tau.data() + j0, j0, jb);
    apply_block(br, Trans::kNo, c.sub(j0, 0, c.rows - j0, c.cols));
  }
}

Matrix form_q_thin(ConstMatrixView qr, const std::vector<double>& tau, i64 k) {
  PARMVN_EXPECTS(k >= 0 && k <= std::min(qr.rows, qr.cols));
  Matrix q(qr.rows, k);
  for (i64 j = 0; j < k; ++j) q(j, j) = 1.0;
  apply_q(qr, tau, q.view());
  return q;
}

RrqrResult rrqr_truncated(ConstMatrixView a, double tol_fro, i64 max_rank,
                          double tol_pivot, double tol_pivot_rel) {
  const i64 m = a.rows;
  const i64 n = a.cols;
  const i64 kmax = std::min(m, n);
  const i64 limit = (max_rank < 0) ? kmax : std::min(max_rank, kmax);

  Matrix work = to_matrix(a);
  MatrixView w = work.view();
  std::vector<i64> perm(static_cast<std::size_t>(n));
  for (i64 j = 0; j < n; ++j) perm[static_cast<std::size_t>(j)] = j;
  std::vector<double> colsq(static_cast<std::size_t>(n));
  double residual_sq = 0.0;
  for (i64 j = 0; j < n; ++j) {
    double s = 0.0;
    const double* cj = w.col(j);
    for (i64 i = 0; i < m; ++i) s += cj[i] * cj[i];
    colsq[static_cast<std::size_t>(j)] = s;
    residual_sq += s;
  }

  std::vector<double> tau;
  tau.reserve(static_cast<std::size_t>(limit));
  const double tol_sq = tol_fro * tol_fro;
  // Column mass at the last exact (re)computation — LAPACK dgeqp3's vn2.
  // Downdate drift accumulates relative to this value, not the running
  // per-step mass, so the recompute guard must be measured against it.
  std::vector<double> mass_at_recompute = colsq;
  i64 rank = 0;

  double tol_pivot_sq = tol_pivot * tol_pivot;
  while (rank < limit && residual_sq > tol_sq) {
    // Pivot: bring the column with the largest remaining mass to position
    // `rank`.
    i64 pivot = rank;
    for (i64 j = rank + 1; j < n; ++j) {
      if (colsq[static_cast<std::size_t>(j)] >
          colsq[static_cast<std::size_t>(pivot)])
        pivot = j;
    }
    if (rank == 0 && tol_pivot_rel > 0.0) {
      // Anchor the relative threshold to the leading pivot's scale.
      const double anchor_sq = colsq[static_cast<std::size_t>(pivot)] *
                               tol_pivot_rel * tol_pivot_rel;
      tol_pivot_sq = std::max(tol_pivot_sq, anchor_sq);
    }
    if (tol_pivot_sq > 0.0 && rank > 0 &&
        colsq[static_cast<std::size_t>(pivot)] <= tol_pivot_sq)
      break;
    if (pivot != rank) {
      for (i64 i = 0; i < m; ++i) std::swap(w(i, rank), w(i, pivot));
      std::swap(colsq[static_cast<std::size_t>(rank)],
                colsq[static_cast<std::size_t>(pivot)]);
      std::swap(mass_at_recompute[static_cast<std::size_t>(rank)],
                mass_at_recompute[static_cast<std::size_t>(pivot)]);
      std::swap(perm[static_cast<std::size_t>(rank)],
                perm[static_cast<std::size_t>(pivot)]);
    }

    const double t = make_reflector(w.col(rank) + rank, m - rank);
    tau.push_back(t);
    apply_reflector(w, rank, t, n);

    // Downdate the trailing column masses and the residual with the newly
    // exposed row of R. Recompute from scratch when cancellation bites; the
    // guard is sqrt(eps) relative to the mass at the last exact computation
    // (LAPACK dgeqp3's tol3z against the vn1/vn2 pair), because downdating
    // drift accumulates as ~eps * that mass across steps — guarding against
    // the running per-step mass lets the drift masquerade as residual mass
    // and inflates the returned rank.
    constexpr double kDowndateGuard = 1.5e-8;  // ~sqrt(DBL_EPSILON)
    residual_sq = 0.0;
    for (i64 j = rank + 1; j < n; ++j) {
      const double rkj = w(rank, j);
      double cj = colsq[static_cast<std::size_t>(j)] - rkj * rkj;
      if (cj < kDowndateGuard * mass_at_recompute[static_cast<std::size_t>(j)]) {
        // Recompute the remaining part of the column exactly.
        cj = 0.0;
        const double* col = w.col(j);
        for (i64 i = rank + 1; i < m; ++i) cj += col[i] * col[i];
        mass_at_recompute[static_cast<std::size_t>(j)] = cj;
      }
      colsq[static_cast<std::size_t>(j)] = cj;
      residual_sq += cj;
    }
    ++rank;
  }

  RrqrResult out;
  out.residual_fro = std::sqrt(std::max(residual_sq, 0.0));
  if (rank == 0) {
    // Tile is zero to within tolerance: represent as a rank-1 zero factor so
    // callers never deal with empty matrices.
    out.u = Matrix(m, 1);
    out.v = Matrix(n, 1);
    out.rank = 1;
    return out;
  }
  out.rank = rank;
  out.u = form_q_thin(w, tau, rank);
  // A P ~= Q R  =>  A ~= Q (R P^T), so V(perm[j], :) = R(0:rank, j)^T.
  // Entries of column j below row j hold reflector storage, not R; R's
  // column j is zero below row min(j, rank-1).
  out.v = Matrix(n, rank);
  for (i64 j = 0; j < n; ++j) {
    const i64 orig = perm[static_cast<std::size_t>(j)];
    const i64 top = std::min(j, rank - 1);
    for (i64 i = 0; i <= top; ++i) out.v(orig, i) = w(i, j);
  }
  return out;
}

}  // namespace parmvn::la
