// Isotropic covariance kernels C(d; theta). The paper builds covariance
// matrices from the Matern family (eq. 6); the synthetic experiments of
// Fig. 1/Fig. 5 use the exponential kernel (Matern with smoothness 1/2) with
// ranges {0.033, 0.1, 0.234}.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace parmvn::stats {

/// Isotropic positive-definite kernel: covariance as a function of distance.
class CovKernel {
 public:
  virtual ~CovKernel() = default;

  /// C(d), d >= 0. C(0) == variance().
  [[nodiscard]] virtual double operator()(double distance) const = 0;

  /// Marginal variance sigma^2 = C(0).
  [[nodiscard]] virtual double variance() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Parameter-complete identity for factor caching: kernels with the same
  /// key must be bitwise-identical functions. Empty (the default) opts the
  /// kernel out of caching.
  [[nodiscard]] virtual std::string cache_key() const { return {}; }
};

/// Matern kernel (paper eq. 6):
///   C(d) = sigma2 * 2^(1-nu)/Gamma(nu) * (d/range)^nu * K_nu(d/range).
/// Closed forms are used for nu in {1/2, 3/2, 5/2}. Every other nu gets a
/// table, built once by the constructor: a piecewise Chebyshev fit of the
/// exponentially scaled form g(z) = 2^(1-nu)/Gamma(nu) z^nu K_nu(z) e^z,
/// z = d/range, sampled from stats::bessel_k_scaled. The table covers
/// z in (kTableMinZ, kTableMaxZ] with kTableSubOctaves equal sub-intervals
/// per octave, each a degree-13 Chebyshev series on 14 first-kind nodes.
/// The interval comes from the exponent and top mantissa bits of z (no
/// search) and is evaluated by Clenshaw, so C(d) = sigma2 * g(z) * e^-z
/// costs one short recurrence and one exp instead of a Bessel series.
/// Intervals are closed on the right, so z = 2 falls on the same side as
/// in bessel_k (Temme's series for z <= 2, Steed's CF2 above).
///
/// The table agrees with the exact path sigma2 * scale * z^nu * bessel_k
/// to 3e-14 relative over the accepted nu (test_stats_covariance,
/// Matern.TableAgreesWithBesselPath). z <= kTableMinZ keeps the exact
/// path; z > 705 returns exactly 0 (K_nu underflows); C(d) is clamped to
/// sigma2. The constructor throws parmvn::Error for nu outside
/// [kMinSmoothness, kMaxSmoothness], the range over which that bound was
/// measured. Above it the table misses the bound (6e-14 at nu = 18, 8e-13
/// at nu = 20), and for large nu the exact path overflows into NaN
/// (Gamma(nu) from nu ~ 171 on, K_nu at short distances).
class MaternKernel final : public CovKernel {
 public:
  static constexpr double kMinSmoothness = 1e-3;
  static constexpr double kMaxSmoothness = 16.0;
  static constexpr double kTableMinZ = 0x1p-24;
  static constexpr double kTableMaxZ = 0x1p10;
  static constexpr int kTableSubOctaves = 4;

  MaternKernel(double sigma2, double range, double smoothness);

  [[nodiscard]] double operator()(double distance) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

  [[nodiscard]] double range() const noexcept { return range_; }
  [[nodiscard]] double smoothness() const noexcept { return nu_; }

 private:
  [[nodiscard]] double scaled_table(double z) const;

  double sigma2_;
  double range_;
  double nu_;
  double scale_;  // 2^(1-nu)/Gamma(nu)
  // Chebyshev coefficients of g, kTableSubOctaves * 34 intervals of 14;
  // empty for the closed-form nu.
  std::vector<double> table_;
};

/// Exponential kernel C(d) = sigma2 * exp(-d/range)  (== Matern nu=1/2).
class ExponentialKernel final : public CovKernel {
 public:
  ExponentialKernel(double sigma2, double range);

  [[nodiscard]] double operator()(double distance) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double sigma2_;
  double range_;
};

/// Squared-exponential (Gaussian) kernel C(d) = sigma2 * exp(-(d/range)^2).
class GaussianKernel final : public CovKernel {
 public:
  GaussianKernel(double sigma2, double range);

  [[nodiscard]] double operator()(double distance) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double sigma2_;
  double range_;
};

/// Powered exponential C(d) = sigma2 * exp(-(d/range)^power), 0 < power <= 2.
class PoweredExponentialKernel final : public CovKernel {
 public:
  PoweredExponentialKernel(double sigma2, double range, double power);

  [[nodiscard]] double operator()(double distance) const override;
  [[nodiscard]] double variance() const override { return sigma2_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double sigma2_;
  double range_;
  double power_;
};

/// Factory used by tools/tests: kind in {"matern","exponential","gaussian",
/// "powexp"}.
std::unique_ptr<CovKernel> make_kernel(const std::string& kind, double sigma2,
                                       double range, double extra);

}  // namespace parmvn::stats
