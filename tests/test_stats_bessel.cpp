// Tests for K_nu: closed forms at half-integer orders, recurrence identity,
// and a double-exponential quadrature oracle for general (nu, x).
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "stats/bessel.hpp"

namespace {

using parmvn::stats::bessel_k;
using parmvn::stats::bessel_k_scaled;

// Oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt, integrated with
// a fine trapezoid rule out to where the integrand underflows. Slow but
// accurate to ~1e-12 for x >= 0.05 — independent of the production
// implementation's algorithm.
double bessel_k_oracle(double nu, double x) {
  const double tmax = std::acosh(750.0 / x + 1.0);
  const int n = 40000;
  const double h = tmax / n;
  double sum = 0.5 * std::exp(-x);  // t = 0 term: cosh(0)=1 both factors
  for (int i = 1; i < n; ++i) {
    const double t = h * i;
    sum += std::exp(-x * std::cosh(t)) * std::cosh(nu * t);
  }
  return sum * h;
}

// Long-double oracle for the scaled function:
// e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt, with
// cosh t - 1 = 2 sinh^2(t/2) to avoid cancellation. The integrand is entire
// and decays double-exponentially, so the trapezoid rule at h = 1/32 is
// exact to long-double rounding (~1e-19), far below the 1e-13 claim.
long double bessel_k_scaled_oracle(long double nu, long double x) {
  const long double h = 1.0L / 32;
  long double sum = 0.5L;  // t = 0 term, half weight
  for (int i = 1;; ++i) {
    const long double s = std::sinh(h * i / 2);
    const long double term = std::exp(-2 * x * s * s) * std::cosh(nu * h * i);
    sum += term;
    if (term < 1e-30L * sum) break;
  }
  return sum * h;
}

TEST(BesselK, HalfIntegerClosedForms) {
  // K_{1/2}(x) = sqrt(pi/(2x)) e^-x
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0}) {
    const double expected = std::sqrt(M_PI / (2.0 * x)) * std::exp(-x);
    EXPECT_NEAR(bessel_k(0.5, x) / expected, 1.0, 1e-12) << "x=" << x;
    // K_{3/2}(x) = sqrt(pi/(2x)) e^-x (1 + 1/x)
    const double k32 = expected * (1.0 + 1.0 / x);
    EXPECT_NEAR(bessel_k(1.5, x) / k32, 1.0, 1e-12) << "x=" << x;
    // K_{5/2}(x) = sqrt(pi/(2x)) e^-x (1 + 3/x + 3/x^2)
    const double k52 = expected * (1.0 + 3.0 / x + 3.0 / (x * x));
    EXPECT_NEAR(bessel_k(2.5, x) / k52, 1.0, 1e-12) << "x=" << x;
  }
}

TEST(BesselK, IntegerOrderReferenceValues) {
  // Classic table values (A&S 9.8; verified with mpmath).
  EXPECT_NEAR(bessel_k(0.0, 1.0) / 0.42102443824070834, 1.0, 1e-13);
  EXPECT_NEAR(bessel_k(1.0, 1.0) / 0.6019072301972346, 1.0, 1e-13);
  EXPECT_NEAR(bessel_k(0.0, 2.0) / 0.11389387274953343, 1.0, 1e-13);
  EXPECT_NEAR(bessel_k(2.0, 2.0) / 0.25375975456605586, 1.0, 1e-13);
}

class BesselOracleGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BesselOracleGrid, MatchesQuadratureOracle) {
  const auto [nu, x] = GetParam();
  const double oracle = bessel_k_oracle(nu, x);
  const double fast = bessel_k(nu, x);
  EXPECT_NEAR(fast / oracle, 1.0, 1e-9) << "nu=" << nu << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    NuXGrid, BesselOracleGrid,
    ::testing::Combine(
        ::testing::Values(0.1, 0.3, 0.75, 1.0, 1.43391, 2.2, 3.7, 5.5),
        ::testing::Values(0.05, 0.3, 1.0, 1.9, 2.1, 4.0, 15.0)));

TEST(BesselK, RecurrenceIdentityHolds) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
  for (double nu : {0.7, 1.2, 2.6, 4.1}) {
    for (double x : {0.2, 1.0, 3.0, 8.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x);
      EXPECT_NEAR(lhs / rhs, 1.0, 1e-11) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(BesselK, ScaledVersionConsistent) {
  for (double nu : {0.5, 1.43391, 3.0}) {
    for (double x : {0.5, 2.0, 20.0}) {
      EXPECT_NEAR(bessel_k_scaled(nu, x) / (bessel_k(nu, x) * std::exp(x)),
                  1.0, 1e-11);
    }
  }
  // Scaled form stays finite where the plain value underflows.
  EXPECT_GT(bessel_k_scaled(1.0, 800.0), 0.0);
  EXPECT_EQ(bessel_k(1.0, 800.0), 0.0);
}

TEST(BesselK, MonotoneDecreasingInX) {
  for (double nu : {0.5, 1.43391, 2.0}) {
    double prev = bessel_k(nu, 0.01);
    for (double x = 0.1; x < 20.0; x += 0.37) {
      const double k = bessel_k(nu, x);
      EXPECT_LT(k, prev) << "nu=" << nu << " x=" << x;
      prev = k;
    }
  }
}

TEST(BesselK, NearIntegerOrderKeepsFullAccuracy) {
  // nu = n + mu with small |mu|: Temme's gam1 must not come from the
  // cancelling difference (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu), which
  // loses about eps/|mu| (7.6e-9 at nu = 2 + 3e-8).
  for (const double nu : {1.0 + 1e-7, 2.0 + 3e-8, 1.001}) {
    for (const double x : {0.5, 2.0}) {
      const long double want = bessel_k_scaled_oracle(nu, x);
      const double got = bessel_k_scaled(nu, x);
      EXPECT_NEAR(static_cast<double>((got - want) / want), 0.0, 1e-13)
          << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(BesselK, DomainChecks) {
  EXPECT_THROW(bessel_k(1.0, 0.0), parmvn::Error);
  EXPECT_THROW(bessel_k(1.0, -2.0), parmvn::Error);
}

TEST(BesselK, EvenInOrder) {
  for (double nu : {0.3, 1.2, 2.5}) {
    for (double x : {0.5, 3.0}) {
      EXPECT_DOUBLE_EQ(bessel_k(-nu, x), bessel_k(nu, x));
    }
  }
}

}  // namespace
