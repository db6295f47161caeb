// One-sided Jacobi singular value decomposition.
//
// Used on the cores that appear in low-rank recompression (r x r with r the
// summed rank of a TLR GEMM update: on the wind TLR factor, n = 4800 with
// tile 400 at accuracy 1e-3, r averages ~110 and reaches ~190) and as a
// high-accuracy oracle in tests. One-sided Jacobi is slow for big matrices
// but essentially backward-stable and simple to verify.
//
// Cyclic sweeps over column pairs in a fixed order; squared column norms are
// computed once per sweep and carried through the rotations, so each pair
// costs one dot product (la::dot) plus, when it rotates, one SIMD plane
// rotation of the stacked [A; V] columns. The reduction order depends only
// on the shape. A pair is converged when |a_p . a_q| <= 1e-15 |a_p| |a_q|.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace parmvn::la {

struct SvdResult {
  Matrix u;                    // m x k, orthonormal columns
  std::vector<double> sigma;   // k singular values, descending
  Matrix v;                    // n x k, orthonormal columns
};

/// Thin SVD A = U diag(sigma) V^T with k = min(m, n), sigma descending.
/// Columns whose norm falls to eps ||A||_F or below are numerically zero:
/// they take part in no further rotation and come out with sigma = 0 and a
/// zero column in the normalised factor (U, or V when m < n); the other
/// factor is always a full orthonormal basis.
[[nodiscard]] SvdResult svd_jacobi(ConstMatrixView a);

/// Smallest rank r such that the discarded tail satisfies
/// sqrt(sum_{i>=r} sigma_i^2) <= tol_fro (absolute Frobenius tolerance).
/// Always returns at least 1.
[[nodiscard]] i64 truncation_rank(const std::vector<double>& sigma,
                                  double tol_fro);

/// Number of singular values >= threshold (HiCMA's fixed-accuracy rule:
/// everything below the threshold is noise). Always returns at least 1.
[[nodiscard]] i64 truncation_rank_sv(const std::vector<double>& sigma,
                                     double threshold);

}  // namespace parmvn::la
