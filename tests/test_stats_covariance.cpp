// Tests for the covariance kernels: closed-form identities, limits,
// monotonicity and the factory.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "stats/bessel.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn::stats;

// The exact path the Matern table replaces: sigma2 * 2^(1-nu)/Gamma(nu) *
// z^nu * K_nu(z), clamped to sigma2 like the kernel.
double exact_matern(double sigma2, double nu, double z) {
  const double v = sigma2 * std::pow(2.0, 1.0 - nu) / std::tgamma(nu) *
                   std::pow(z, nu) * bessel_k(nu, z);
  return v < sigma2 ? v : sigma2;
}

// Endpoints of the table's sub-intervals, 2^e (1 + q/4), up to z = 705.
std::vector<double> table_breakpoints() {
  std::vector<double> out;
  for (double left = MaternKernel::kTableMinZ; left < 705.0; left *= 2.0)
    for (int q = 0; q < MaternKernel::kTableSubOctaves; ++q) {
      const double z = left * (1.0 + q / double(MaternKernel::kTableSubOctaves));
      if (z <= 705.0) out.push_back(z);
    }
  return out;
}

constexpr double kTableSmoothness[] = {0.05, 0.25, 0.7, 1.0,  1.43391,
                                       2.0,  2.2,  3.7, 8.0, 10.0};

TEST(Matern, HalfSmoothnessIsExponential) {
  const MaternKernel m(2.0, 0.1, 0.5);
  const ExponentialKernel e(2.0, 0.1);
  for (double d : {0.0, 0.01, 0.1, 0.5, 2.0}) {
    EXPECT_NEAR(m(d), e(d), 1e-14) << "d=" << d;
  }
}

TEST(Matern, BesselPathMatchesClosedFormNu15) {
  // nu = 1.5 takes the closed form; nu = 1.5+1e-9 takes the Bessel path.
  const MaternKernel closed(1.0, 0.2, 1.5);
  const MaternKernel bessel(1.0, 0.2, 1.5 + 1e-9);
  for (double d : {0.01, 0.05, 0.2, 0.7, 1.5}) {
    EXPECT_NEAR(bessel(d) / closed(d), 1.0, 1e-6) << "d=" << d;
  }
}

TEST(Matern, BesselPathMatchesClosedFormNu25) {
  const MaternKernel closed(1.0, 0.3, 2.5);
  const MaternKernel bessel(1.0, 0.3, 2.5 + 1e-9);
  for (double d : {0.01, 0.1, 0.4, 1.0}) {
    EXPECT_NEAR(bessel(d) / closed(d), 1.0, 1e-6) << "d=" << d;
  }
}

TEST(Matern, ValueAtZeroIsVarianceAndContinuous) {
  for (double nu : {0.5, 1.0, 1.43391, 2.5, 3.7}) {
    const MaternKernel k(1.7, 0.05, nu);
    EXPECT_DOUBLE_EQ(k(0.0), 1.7);
    // C(d) -> sigma2 as d -> 0 (continuity; also exercises tiny-argument
    // Bessel evaluation).
    EXPECT_NEAR(k(1e-10) / 1.7, 1.0, 1e-5) << "nu=" << nu;
  }
}

TEST(Matern, NeverExceedsVariance) {
  const MaternKernel k(1.0, 0.1, 1.43391);
  for (double d = 1e-9; d < 2.0; d *= 3.0) {
    EXPECT_LE(k(d), 1.0) << "d=" << d;
    EXPECT_GE(k(d), 0.0) << "d=" << d;
  }
}

TEST(Matern, LongDistanceUnderflowsToZero) {
  const MaternKernel k(1.0, 0.001, 1.2);
  EXPECT_EQ(k(10.0), 0.0);  // z = 10000 >> 705
}

TEST(Matern, TableAgreesWithBesselPath) {
  // 1e5 log-uniform z over the table's range up to the underflow cut, plus
  // every sub-interval endpoint and its two neighbouring doubles. With
  // range 1 the distance is z itself.
  std::vector<double> zs;
  std::mt19937_64 gen(20240);
  std::uniform_real_distribution<double> log_z(std::log(MaternKernel::kTableMinZ),
                                               std::log(705.0));
  for (int i = 0; i < 100000; ++i) zs.push_back(std::exp(log_z(gen)));
  for (const double z : table_breakpoints()) {
    zs.push_back(z);
    zs.push_back(std::nextafter(z, 0.0));
    zs.push_back(std::nextafter(z, 1e3));
  }
  for (const double nu : kTableSmoothness) {
    const MaternKernel k(1.0, 1.0, nu);
    double worst = 0.0;
    double worst_z = 0.0;
    for (const double z : zs) {
      const double want = exact_matern(1.0, nu, z);
      const double rel = std::fabs(k(z) - want) / want;
      if (!(rel <= worst)) {
        worst = rel;
        worst_z = z;
      }
    }
    EXPECT_LE(worst, 3e-14) << "nu=" << nu << " worst at z=" << worst_z;
  }
}

TEST(Matern, TableNonIncreasingAndBoundedAcrossIntervals) {
  // A d-grid of relative spacing 2^-20 across every boundary inside the
  // table (range 0.1, so z = 10 d). A rise beyond 4 ulps is a table defect
  // unless the exact path rises over the same step: for small nu it jumps
  // by up to 4e-14 at z = 2, where bessel_k switches from Temme's series
  // to CF2, and the table reproduces that jump.
  constexpr double kTol = 4.0 * DBL_EPSILON;
  const std::vector<double> breaks = table_breakpoints();
  for (const double nu : kTableSmoothness) {
    const MaternKernel k(1.0, 0.1, nu);
    for (std::size_t b = 1; b < breaks.size(); ++b) {
      double prev_d = 0.1 * breaks[b] * (1.0 - 33.0 * 0x1p-20);
      double prev = k(prev_d);
      for (int s = -32; s <= 32; ++s) {
        const double d = 0.1 * breaks[b] * (1.0 + s * 0x1p-20);
        const double v = k(d);
        EXPECT_LE(v, 1.0) << "nu=" << nu << " d=" << d;
        const bool exact_rises = exact_matern(1.0, nu, d / 0.1) >
                                 exact_matern(1.0, nu, prev_d / 0.1) * (1.0 + kTol);
        if (!exact_rises) {
          EXPECT_LE(v, prev * (1.0 + kTol)) << "nu=" << nu << " d=" << d;
        }
        prev = v;
        prev_d = d;
      }
    }
  }
}

TEST(Matern, RejectsSmoothnessOutsideTableRangeAndNeverReturnsNan) {
  // Beyond kMaxSmoothness the table misses its bound, and the exact path
  // gives NaN: at nu = 50 for z <= 1e-6, at nu = 120 for z <= 0.1 and at
  // every z from nu = 171 on, where Gamma(nu) overflows.
  for (const double nu : {MaternKernel::kMaxSmoothness * 1.01, 50.0, 120.0,
                          171.0, 500.0, MaternKernel::kMinSmoothness * 0.99,
                          0.0, -0.5, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    try {
      (void)MaternKernel(1.0, 0.1, nu);
      ADD_FAILURE() << "accepted nu=" << nu;
    } catch (const parmvn::Error& e) {
      EXPECT_NE(std::string(e.what()).find("nu = "), std::string::npos)
          << e.what();
    }
  }
  try {
    (void)MaternKernel(1.0, 0.1, 50.0);
  } catch (const parmvn::Error& e) {
    EXPECT_NE(std::string(e.what()).find("nu = 50"), std::string::npos)
        << e.what();
  }
  // At the range ends, distances from the smallest subnormal on give a
  // finite value in [0, sigma2]; there K_nu overflows while z^nu underflows.
  for (const double nu : {MaternKernel::kMinSmoothness, 10.0,
                          MaternKernel::kMaxSmoothness}) {
    const MaternKernel k(2.0, 1.0, nu);
    for (double d = std::numeric_limits<double>::denorm_min(); d < 1e4;
         d *= 7.0) {
      const double v = k(d);
      EXPECT_TRUE(v >= 0.0 && v <= 2.0) << "nu=" << nu << " d=" << d << " C=" << v;
    }
  }
}

class KernelMonotone : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelMonotone, DecreasingInDistance) {
  const std::string kind = GetParam();
  const auto k = make_kernel(kind, 1.0, 0.15, kind == "matern" ? 1.43391 : 1.0);
  double prev = (*k)(0.0);
  for (double d = 0.01; d < 1.0; d += 0.01) {
    const double v = (*k)(d);
    EXPECT_LE(v, prev + 1e-15) << kind << " d=" << d;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, KernelMonotone,
                         ::testing::Values("matern", "exponential", "gaussian",
                                           "powexp"));

TEST(Kernels, GaussianAndPowexpForms) {
  const GaussianKernel g(2.0, 0.5);
  EXPECT_NEAR(g(0.5), 2.0 * std::exp(-1.0), 1e-15);
  const PoweredExponentialKernel p(1.0, 0.5, 1.0);
  const ExponentialKernel e(1.0, 0.5);
  EXPECT_NEAR(p(0.3), e(0.3), 1e-15);
  const PoweredExponentialKernel p2(1.0, 0.5, 2.0);
  EXPECT_NEAR(p2(0.3), g(0.3) / 2.0, 1e-15);
}

TEST(Kernels, FactoryRejectsUnknownKind) {
  EXPECT_THROW(make_kernel("nope", 1.0, 1.0, 1.0), parmvn::Error);
}

TEST(Kernels, ParameterValidation) {
  EXPECT_THROW(MaternKernel(-1.0, 0.1, 0.5), parmvn::Error);
  EXPECT_THROW(MaternKernel(1.0, 0.0, 0.5), parmvn::Error);
  EXPECT_THROW(MaternKernel(1.0, 0.1, -0.5), parmvn::Error);
  EXPECT_THROW(ExponentialKernel(0.0, 0.1), parmvn::Error);
  EXPECT_THROW(PoweredExponentialKernel(1.0, 0.1, 2.5), parmvn::Error);
  const MaternKernel k(1.0, 0.1, 0.5);
  EXPECT_THROW(k(-0.1), parmvn::Error);
}

TEST(Kernels, PaperParameterSets) {
  // The three synthetic datasets of Fig. 1: exponential with ranges
  // 0.033 / 0.1 / 0.234 — correlation at a fixed distance must increase
  // with the range parameter ("weak" to "strong").
  const ExponentialKernel weak(1.0, 0.033);
  const ExponentialKernel medium(1.0, 0.1);
  const ExponentialKernel strong(1.0, 0.234);
  const double d = 0.1;
  EXPECT_LT(weak(d), medium(d));
  EXPECT_LT(medium(d), strong(d));
}

}  // namespace
