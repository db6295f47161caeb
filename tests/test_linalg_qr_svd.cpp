// Tests for Householder QR, rank-revealing QR and the Jacobi SVD.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "stats/rng.hpp"

namespace {

using namespace parmvn;
using la::Matrix;
using la::Trans;

Matrix random_matrix(i64 m, i64 n, u64 seed) {
  stats::Xoshiro256pp g(seed);
  Matrix a(m, n);
  for (i64 j = 0; j < n; ++j)
    for (i64 i = 0; i < m; ++i) a(i, j) = 2.0 * g.next_u01() - 1.0;
  return a;
}

// A = U diag(sv) V^T with orthonormal-ish factors built from QR of random
// matrices; gives controlled singular values.
Matrix matrix_with_singular_values(i64 m, i64 n, const std::vector<double>& sv,
                                   u64 seed) {
  const i64 k = static_cast<i64>(sv.size());
  Matrix qu = random_matrix(m, k, seed);
  std::vector<double> tau;
  la::householder_qr(qu.view(), tau);
  Matrix u = la::form_q_thin(qu.view(), tau, k);
  Matrix qv = random_matrix(n, k, seed + 1);
  la::householder_qr(qv.view(), tau);
  Matrix v = la::form_q_thin(qv.view(), tau, k);
  for (i64 j = 0; j < k; ++j)
    for (i64 i = 0; i < m; ++i) u(i, j) *= sv[static_cast<std::size_t>(j)];
  Matrix a(m, n);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, u.view(), v.view(), 0.0, a.view());
  return a;
}

// max |(Q^T Q - I)_ij|.
double max_orthonormality_error(la::ConstMatrixView q) {
  Matrix gram(q.cols, q.cols);
  la::gemm(Trans::kYes, Trans::kNo, 1.0, q, q, 0.0, gram.view());
  for (i64 i = 0; i < q.cols; ++i) gram(i, i) -= 1.0;
  return la::max_abs(gram.view());
}

// C <- H_0 H_1 ... H_{k-1} C one reflector at a time (the unblocked
// reference for the compact-WY apply_q).
void apply_q_reference(const Matrix& qr, const std::vector<double>& tau,
                       Matrix& c) {
  const i64 m = qr.rows();
  for (i64 j = static_cast<i64>(tau.size()) - 1; j >= 0; --j) {
    const double tj = tau[static_cast<std::size_t>(j)];
    for (i64 col = 0; col < c.cols(); ++col) {
      double s = c(j, col);
      for (i64 i = j + 1; i < m; ++i) s += qr(i, j) * c(i, col);
      s *= tj;
      c(j, col) -= s;
      for (i64 i = j + 1; i < m; ++i) c(i, col) -= s * qr(i, j);
    }
  }
}

// sigma_j = 10^(-14 j / (k - 1)): a graded spectrum from 1 down to 1e-14.
std::vector<double> graded_spectrum(i64 k) {
  std::vector<double> sv;
  for (i64 j = 0; j < k; ++j)
    sv.push_back(std::pow(10.0, -14.0 * static_cast<double>(j) /
                                    static_cast<double>(k - 1)));
  return sv;
}

// Checks shared by the SVD property tests: sigma descending and equal to
// `expected` (padded with zeros) to 1e-13 sigma_1; A = U S V^T; the
// accumulated rotations (V, or U for a wide input) orthonormal; the
// normalised columns (U, or V for a wide input) orthonormal where sigma > 0
// and zero where sigma = 0.
void expect_svd_of(la::ConstMatrixView a, const la::SvdResult& s,
                   const std::vector<double>& expected) {
  const i64 k = std::min(a.rows, a.cols);
  ASSERT_EQ(static_cast<i64>(s.sigma.size()), k);
  const double sigma1 = expected.front();
  for (i64 j = 0; j < k; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const double want = ju < expected.size() ? expected[ju] : 0.0;
    EXPECT_NEAR(s.sigma[ju], want, 1e-13 * sigma1) << "sigma " << j;
    if (j > 0) {
      EXPECT_LE(s.sigma[ju], s.sigma[ju - 1]) << "order at " << j;
    }
  }
  const bool wide = a.rows < a.cols;
  const Matrix& rotations = wide ? s.u : s.v;
  const Matrix& normalised = wide ? s.v : s.u;
  EXPECT_LT(max_orthonormality_error(rotations.view()), 1e-13);
  i64 nonzero = 0;
  while (nonzero < k && s.sigma[static_cast<std::size_t>(nonzero)] > 0.0)
    ++nonzero;
  const i64 rows = normalised.rows();
  EXPECT_LT(max_orthonormality_error(normalised.sub(0, 0, rows, nonzero)),
            1e-13);
  EXPECT_EQ(la::frobenius_norm(normalised.sub(0, nonzero, rows, k - nonzero)),
            0.0);
  Matrix us = la::to_matrix(s.u.view());
  for (i64 j = 0; j < k; ++j)
    for (i64 i = 0; i < a.rows; ++i)
      us(i, j) *= s.sigma[static_cast<std::size_t>(j)];
  Matrix rec(a.rows, a.cols);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, us.view(), s.v.view(), 0.0,
           rec.view());
  EXPECT_LT(la::frobenius_diff(rec.view(), a), 1e-13 * sigma1);
}

double orthonormality_defect(la::ConstMatrixView q) {
  Matrix gram(q.cols, q.cols);
  la::gemm(Trans::kYes, Trans::kNo, 1.0, q, q, 0.0, gram.view());
  for (i64 i = 0; i < q.cols; ++i) gram(i, i) -= 1.0;
  return la::frobenius_norm(gram.view());
}

TEST(HouseholderQr, ReconstructsAndQOrthonormal) {
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{{8, 8}, {20, 7}, {64, 64},
                                                      {100, 30}, {5, 5}}) {
    const Matrix a0 = random_matrix(m, n, 77);
    Matrix a = la::to_matrix(a0.view());
    std::vector<double> tau;
    la::householder_qr(a.view(), tau);
    const i64 k = std::min(m, n);
    Matrix q = la::form_q_thin(a.view(), tau, k);
    EXPECT_LT(orthonormality_defect(q.view()), 1e-12) << m << "x" << n;
    // R = leading k x n upper triangle.
    Matrix r(k, n);
    for (i64 j = 0; j < n; ++j)
      for (i64 i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
    Matrix rec(m, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, q.view(), r.view(), 0.0, rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), a0.view()),
              1e-12 * (1.0 + la::frobenius_norm(a0.view())))
        << m << "x" << n;
  }
}

TEST(HouseholderQr, BlockedShapesReconstruct) {
  // Several compact-WY panels, ragged last panels, and a wide input whose
  // trailing columns beyond min(m, n) take only the block updates.
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{
           {200, 70}, {400, 110}, {33, 33}, {40, 90}, {17, 49}}) {
    const Matrix a0 = random_matrix(m, n, 31);
    Matrix a = la::to_matrix(a0.view());
    std::vector<double> tau;
    la::householder_qr(a.view(), tau);
    const i64 k = std::min(m, n);
    const Matrix q = la::form_q_thin(a.view(), tau, k);
    EXPECT_LT(max_orthonormality_error(q.view()), 1e-13) << m << "x" << n;
    Matrix r(k, n);
    for (i64 j = 0; j < n; ++j)
      for (i64 i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
    Matrix rec(m, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, q.view(), r.view(), 0.0, rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), a0.view()),
              1e-13 * la::frobenius_norm(a0.view()))
        << m << "x" << n;
  }
}

TEST(HouseholderQr, ApplyQMatchesReflectorByReflector) {
  for (auto [m, n, c] : std::vector<std::tuple<i64, i64, i64>>{
           {400, 110, 46}, {120, 40, 3}, {50, 50, 50}, {30, 12, 1}}) {
    Matrix a = random_matrix(m, n, 37);
    std::vector<double> tau;
    la::householder_qr(a.view(), tau);
    const Matrix c0 = random_matrix(m, c, 41);
    Matrix blocked = la::to_matrix(c0.view());
    la::apply_q(a.view(), tau, blocked.view());
    Matrix reference = la::to_matrix(c0.view());
    apply_q_reference(a, tau, reference);
    EXPECT_LT(la::frobenius_diff(blocked.view(), reference.view()),
              1e-13 * la::frobenius_norm(c0.view()))
        << m << "x" << n << " applied to " << c << " columns";
  }
}

TEST(Rrqr, ExactLowRankRecovered) {
  const Matrix a = matrix_with_singular_values(40, 30, {5.0, 2.0, 1.0}, 11);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 1e-10, -1);
  EXPECT_EQ(lr.rank, 3);
  Matrix rec(40, 30);
  la::gemm(Trans::kNo, Trans::kYes, 1.0, lr.u.view(), lr.v.view(), 0.0,
           rec.view());
  EXPECT_LT(la::frobenius_diff(rec.view(), a.view()), 1e-9);
  EXPECT_LT(lr.residual_fro, 1e-9);
}

TEST(Rrqr, ToleranceControlsActualError) {
  // Geometric singular-value decay; check ||A - UV^T||_F <= tol for a range
  // of tolerances, and that reported residual matches the measured one.
  std::vector<double> sv;
  for (int i = 0; i < 20; ++i) sv.push_back(std::pow(0.5, i));
  const Matrix a = matrix_with_singular_values(50, 45, sv, 13);
  for (double tol : {1e-1, 1e-3, 1e-6, 1e-9}) {
    const la::RrqrResult lr = la::rrqr_truncated(a.view(), tol, -1);
    Matrix rec(50, 45);
    la::gemm(Trans::kNo, Trans::kYes, 1.0, lr.u.view(), lr.v.view(), 0.0,
             rec.view());
    const double err = la::frobenius_diff(rec.view(), a.view());
    EXPECT_LE(err, tol * 1.01) << "tol=" << tol;
    // The tracked residual is a conservative estimate: it must bound the
    // true error (up to downdating noise ~sqrt(eps)) and respect the stop
    // tolerance itself.
    EXPECT_LE(lr.residual_fro, tol * 1.01) << "tol=" << tol;
    EXPECT_LE(err, lr.residual_fro + 1e-7) << "tol=" << tol;
  }
}

TEST(Rrqr, RankMonotoneInTolerance) {
  std::vector<double> sv;
  for (int i = 0; i < 30; ++i) sv.push_back(std::pow(0.7, i));
  const Matrix a = matrix_with_singular_values(60, 60, sv, 17);
  i64 prev_rank = 0;
  for (double tol : {1e-1, 1e-2, 1e-4, 1e-6, 1e-8}) {
    const la::RrqrResult lr = la::rrqr_truncated(a.view(), tol, -1);
    EXPECT_GE(lr.rank, prev_rank);
    prev_rank = lr.rank;
  }
}

TEST(Rrqr, MaxRankCap) {
  std::vector<double> sv;
  for (int i = 0; i < 20; ++i) sv.push_back(std::pow(0.9, i));
  const Matrix a = matrix_with_singular_values(30, 30, sv, 19);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 0.0, 5);
  EXPECT_EQ(lr.rank, 5);
  EXPECT_GT(lr.residual_fro, 0.0);
}

TEST(Rrqr, ZeroMatrixGivesRankOneZeroFactor) {
  const Matrix a(12, 9);
  const la::RrqrResult lr = la::rrqr_truncated(a.view(), 1e-12, -1);
  EXPECT_EQ(lr.rank, 1);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(lr.u.view()), 0.0);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(lr.v.view()), 0.0);
}

TEST(SvdJacobi, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 4.0;
  a(1, 1) = 1.0;
  a(2, 2) = 3.0;
  a(3, 3) = 2.0;
  const la::SvdResult s = la::svd_jacobi(a.view());
  ASSERT_EQ(s.sigma.size(), 4u);
  EXPECT_NEAR(s.sigma[0], 4.0, 1e-12);
  EXPECT_NEAR(s.sigma[1], 3.0, 1e-12);
  EXPECT_NEAR(s.sigma[2], 2.0, 1e-12);
  EXPECT_NEAR(s.sigma[3], 1.0, 1e-12);
}

TEST(SvdJacobi, ReconstructionAndOrthogonality) {
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{{12, 12}, {30, 10},
                                                      {10, 30}, {1, 5}}) {
    const Matrix a = random_matrix(m, n, 23);
    const la::SvdResult s = la::svd_jacobi(a.view());
    const i64 k = std::min(m, n);
    ASSERT_EQ(static_cast<i64>(s.sigma.size()), k);
    EXPECT_LT(orthonormality_defect(s.u.view()), 1e-11);
    EXPECT_LT(orthonormality_defect(s.v.view()), 1e-11);
    // Descending order.
    for (std::size_t i = 1; i < s.sigma.size(); ++i)
      EXPECT_LE(s.sigma[i], s.sigma[i - 1] + 1e-14);
    // A == U S V^T.
    Matrix us = la::to_matrix(s.u.view());
    for (i64 j = 0; j < k; ++j)
      for (i64 i = 0; i < m; ++i) us(i, j) *= s.sigma[static_cast<std::size_t>(j)];
    Matrix rec(m, n);
    la::gemm(Trans::kNo, Trans::kYes, 1.0, us.view(), s.v.view(), 0.0,
             rec.view());
    EXPECT_LT(la::frobenius_diff(rec.view(), a.view()),
              1e-11 * (1.0 + la::frobenius_norm(a.view())))
        << m << "x" << n;
  }
}

TEST(SvdJacobi, AgreesWithRrqrResidual) {
  std::vector<double> sv;
  for (int i = 0; i < 15; ++i) sv.push_back(std::pow(0.6, i));
  const Matrix a = matrix_with_singular_values(25, 25, sv, 29);
  const la::SvdResult s = la::svd_jacobi(a.view());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(s.sigma[i], sv[i], 1e-10) << i;
}

TEST(SvdJacobi, GradedSpectraDownTo1e14) {
  // Tall, square and wide inputs; the wide ones run on the transpose.
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{
           {60, 40}, {50, 50}, {110, 110}, {30, 70}, {8, 45}}) {
    const std::vector<double> sv = graded_spectrum(std::min(m, n));
    const Matrix a = matrix_with_singular_values(m, n, sv, 43);
    SCOPED_TRACE(::testing::Message() << m << "x" << n);
    expect_svd_of(a.view(), la::svd_jacobi(a.view()), sv);
  }
}

TEST(SvdJacobi, RepeatedAndZeroColumns) {
  // B = [b0 b1 b2] with known singular values; A repeats b0 three times
  // (scaled by 1/sqrt(3), so A A^T = B B^T) and adds two zero columns:
  // sigma(A) = sigma(B) followed by exact zeros.
  const std::vector<double> sv{3.0, 1.0, 0.25};
  const Matrix b = matrix_with_singular_values(20, 3, sv, 47);
  for (const bool wide : {false, true}) {
    const i64 layout[] = {0, -1, 1, 0, 2, -1, 0};  // -1: a zero column
    Matrix a(20, 7);
    for (i64 j = 0; j < 7; ++j) {
      const i64 src = layout[j];
      if (src < 0) continue;
      const double scale = src == 0 ? 1.0 / std::sqrt(3.0) : 1.0;
      for (i64 i = 0; i < 20; ++i) a(i, j) = scale * b(i, src);
    }
    Matrix in = a;
    if (wide) {
      in = Matrix(7, 20);
      la::transpose_into(a.view(), in.view());
    }
    SCOPED_TRACE(wide ? "wide" : "tall");
    expect_svd_of(in.view(), la::svd_jacobi(in.view()), sv);
  }
}

TEST(SvdJacobi, AllZeroInput) {
  const Matrix a(9, 5);
  const la::SvdResult s = la::svd_jacobi(a.view());
  for (const double x : s.sigma) EXPECT_EQ(x, 0.0);
  EXPECT_EQ(la::frobenius_norm(s.u.view()), 0.0);
  EXPECT_LT(max_orthonormality_error(s.v.view()), 1e-15);
}

TEST(TruncationRank, TailRule) {
  const std::vector<double> sigma{4.0, 2.0, 1.0, 0.5};
  // tail^2 after keeping r: r=4:0, r=3:0.25, r=2:1.25, r=1:5.25, r=0:21.25
  EXPECT_EQ(la::truncation_rank(sigma, 0.0), 4);
  EXPECT_EQ(la::truncation_rank(sigma, 0.6), 3);
  EXPECT_EQ(la::truncation_rank(sigma, 1.2), 2);
  EXPECT_EQ(la::truncation_rank(sigma, 2.3), 1);
  EXPECT_EQ(la::truncation_rank(sigma, 100.0), 1);  // floor at 1
}

}  // namespace
