// Householder QR and rank-revealing (column-pivoted) QR.
//
// RRQR is the workhorse of tile compression: an m x n tile A is approximated
// by Q_r (R_r P^T) with r chosen so the *exact* Frobenius residual
// ||A - U V^T||_F <= tol (the trailing column sum-of-squares is tracked
// during pivoting, so the stopping rule is not a heuristic).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la {

/// In-place Householder QR of a (m x n): on return the upper triangle holds
/// R and the columns below the diagonal hold the Householder vectors;
/// tau[j] are the reflector scalings (LAPACK dgeqrf layout). Blocked like
/// dgeqrf: panels of reflectors are factored unblocked, and each panel's
/// compact-WY form updates the trailing columns through gemm.
void householder_qr(MatrixView a, std::vector<double>& tau);

/// C <- Q C for the Q = H_0 H_1 ... H_{k-1} of a dgeqrf-style factor,
/// k = tau.size() reflectors, C with qr.rows rows (LAPACK dormqr, left,
/// no transpose). Applied in compact-WY blocks through gemm, so Q itself is
/// never formed: Q [X; 0] costs O(m k cols(X)) however few columns X has.
void apply_q(ConstMatrixView qr, const std::vector<double>& tau, MatrixView c);

/// Form the thin Q (m x k, k <= min(m,n)) from the dgeqrf-style factor:
/// apply_q to the first k columns of the identity.
[[nodiscard]] Matrix form_q_thin(ConstMatrixView qr,
                                 const std::vector<double>& tau, i64 k);

/// Result of a truncated rank-revealing QR: A ~= U * V^T with U (m x rank)
/// orthonormal and V (n x rank); `residual_fro` is the exact Frobenius norm
/// of the dropped part.
struct RrqrResult {
  Matrix u;
  Matrix v;
  i64 rank = 0;
  double residual_fro = 0.0;
};

/// Column-pivoted QR truncated at the first of:
///  * absolute Frobenius tolerance `tol_fro`: the not-yet-factored residual
///    satisfies ||residual||_F <= tol_fro;
///  * pivot threshold `tol_pivot` (0 disables): the largest remaining column
///    norm — a proxy for the residual's leading singular value, the
///    LAPACK-style rank rule — drops to <= tol_pivot;
///  * relative pivot threshold `tol_pivot_rel` (0 disables): like tol_pivot
///    but measured against the *first* pivot's column norm (ie. relative to
///    the block's spectral scale — the HiCMA accuracy semantics);
///  * `max_rank` columns (max_rank < 0 means unlimited).
[[nodiscard]] RrqrResult rrqr_truncated(ConstMatrixView a, double tol_fro,
                                        i64 max_rank, double tol_pivot = 0.0,
                                        double tol_pivot_rel = 0.0);

}  // namespace parmvn::la
