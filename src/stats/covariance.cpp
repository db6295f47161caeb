#include "stats/covariance.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "stats/bessel.hpp"

namespace parmvn::stats {

namespace {

// %.17g round-trips doubles exactly, so equal keys imply bitwise-equal
// kernel parameters.
std::string kernel_key(const char* kind, double p0, double p1, double p2) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s(%.17g,%.17g,%.17g)", kind, p0, p1, p2);
  return buf;
}

// Matern table layout. Interval k of the table covers (L_k, L_k + w_k]
// with L_k = 2^e (1 + q/4), w_k = 2^e / 4 for e = -24..9, q = 0..3: the top
// two mantissa bits pick q, so the interval index of z is a shift of the
// bits of the largest double below z.
constexpr int kDegree = 13;
constexpr int kNodes = kDegree + 1;
constexpr int kSubOctaveBits = 2;
static_assert(MaternKernel::kTableSubOctaves == 1 << kSubOctaveBits);
constexpr int kFirstExponent = -24;
constexpr int kOctaves = 34;
static_assert(MaternKernel::kTableMinZ == 0x1p-24 &&
              MaternKernel::kTableMaxZ == 0x1p10);
constexpr int kIntervals = kOctaves << kSubOctaveBits;
constexpr int kFracBits = 52 - kSubOctaveBits;
constexpr u64 kFracMask = (u64{1} << kFracBits) - 1;
constexpr double kFracScale = 2.0 / static_cast<double>(u64{1} << kFracBits);
constexpr u64 kFirstKey =
    std::bit_cast<u64>(MaternKernel::kTableMinZ) >> kFracBits;

// Chebyshev nodes of the first kind t_j = cos(pi (j + 1/2) / kNodes) and the
// DCT-II matrix that maps samples at them to series coefficients (c_0
// halved, so the series is sum_k c_k T_k(t)).
struct ChebyshevBasis {
  std::array<double, kNodes> node;
  std::array<double, kNodes * kNodes> dct;
};

const ChebyshevBasis& chebyshev_basis() {
  static const ChebyshevBasis basis = [] {
    ChebyshevBasis b{};
    for (int j = 0; j < kNodes; ++j)
      b.node[static_cast<std::size_t>(j)] = std::cos(M_PI * (j + 0.5) / kNodes);
    for (int k = 0; k < kNodes; ++k)
      for (int j = 0; j < kNodes; ++j)
        b.dct[static_cast<std::size_t>(k * kNodes + j)] =
            (k == 0 ? 1.0 : 2.0) / kNodes *
            std::cos(M_PI * k * (j + 0.5) / kNodes);
    return b;
  }();
  return basis;
}

std::string format_double(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace

MaternKernel::MaternKernel(double sigma2, double range, double smoothness)
    : sigma2_(sigma2), range_(range), nu_(smoothness) {
  PARMVN_EXPECTS(sigma2 > 0.0);
  PARMVN_EXPECTS(range > 0.0);
  if (!(smoothness >= kMinSmoothness && smoothness <= kMaxSmoothness))
    throw Error("MaternKernel: smoothness nu = " + format_double(smoothness) +
                " is outside the supported range [" +
                format_double(kMinSmoothness) + ", " +
                format_double(kMaxSmoothness) + "]");
  scale_ = std::pow(2.0, 1.0 - nu_) / std::tgamma(nu_);
  if (nu_ == 0.5 || nu_ == 1.5 || nu_ == 2.5) return;

  const ChebyshevBasis& basis = chebyshev_basis();
  table_.resize(static_cast<std::size_t>(kIntervals * kNodes));
  std::array<double, kNodes> g{};
  for (int k = 0; k < kIntervals; ++k) {
    const int e = kFirstExponent + (k >> kSubOctaveBits);
    const int q = k & ((1 << kSubOctaveBits) - 1);
    const double left = std::ldexp(1.0 + 0.25 * q, e);
    const double half_width = std::ldexp(0.125, e);
    for (int j = 0; j < kNodes; ++j) {
      const double z =
          left + (1.0 + basis.node[static_cast<std::size_t>(j)]) * half_width;
      g[static_cast<std::size_t>(j)] =
          scale_ * std::pow(z, nu_) * bessel_k_scaled(nu_, z);
    }
    double* c = table_.data() + static_cast<std::size_t>(k * kNodes);
    for (int i = 0; i < kNodes; ++i) {
      const double* row = basis.dct.data() + static_cast<std::size_t>(i * kNodes);
      double s = 0.0;
      for (int j = 0; j < kNodes; ++j) s += row[j] * g[static_cast<std::size_t>(j)];
      c[i] = s;
    }
  }
}

// g(z) for kTableMinZ < z <= kTableMaxZ: the bits of the double just below
// z hold the interval index (exponent + top mantissa bits) and, in the
// remaining bits, the exact offset of z into the interval.
double MaternKernel::scaled_table(double z) const {
  const u64 key = std::bit_cast<u64>(z) - 1;
  const u64 k = (key >> kFracBits) - kFirstKey;
  const double t =
      static_cast<double>((key & kFracMask) + 1) * kFracScale - 1.0;  // (-1, 1]
  const double* c = table_.data() + k * kNodes;
  const double t2 = 2.0 * t;
  double b1 = 0.0;
  double b2 = 0.0;
  for (int i = kDegree; i >= 1; --i) {
    const double b0 = t2 * b1 - b2 + c[i];
    b2 = b1;
    b1 = b0;
  }
  return t * b1 - b2 + c[0];
}

double MaternKernel::operator()(double distance) const {
  PARMVN_EXPECTS(distance >= 0.0);
  if (distance == 0.0) return sigma2_;
  const double z = distance / range_;
  // Closed forms avoid the Bessel evaluation for the half-integer orders
  // that dominate geostatistics practice.
  if (nu_ == 0.5) return sigma2_ * std::exp(-z);
  if (nu_ == 1.5) return sigma2_ * (1.0 + z) * std::exp(-z);
  if (nu_ == 2.5) return sigma2_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
  if (z > 705.0) return 0.0;  // K_nu underflows; covariance is exactly 0 in
                              // double precision anyway
  const double value =
      z > kTableMinZ
          ? sigma2_ * scaled_table(z) * std::exp(-z)
          : sigma2_ * scale_ * std::pow(z, nu_) * bessel_k(nu_, z);
  // Guard against rounding pushing C(d) above C(0) for tiny distances. The
  // comparison also sends NaN to sigma2: at z far below the table, K_nu can
  // overflow while z^nu underflows (inf * 0), and there C(d) == sigma2 to
  // double precision.
  return value < sigma2_ ? value : sigma2_;
}

std::string MaternKernel::name() const {
  return "matern(nu=" + std::to_string(nu_) + ")";
}

std::string MaternKernel::cache_key() const {
  return kernel_key("matern", sigma2_, range_, nu_);
}

ExponentialKernel::ExponentialKernel(double sigma2, double range)
    : sigma2_(sigma2), range_(range) {
  PARMVN_EXPECTS(sigma2 > 0.0);
  PARMVN_EXPECTS(range > 0.0);
}

double ExponentialKernel::operator()(double distance) const {
  PARMVN_EXPECTS(distance >= 0.0);
  return sigma2_ * std::exp(-distance / range_);
}

std::string ExponentialKernel::name() const { return "exponential"; }

std::string ExponentialKernel::cache_key() const {
  return kernel_key("exponential", sigma2_, range_, 0.0);
}

GaussianKernel::GaussianKernel(double sigma2, double range)
    : sigma2_(sigma2), range_(range) {
  PARMVN_EXPECTS(sigma2 > 0.0);
  PARMVN_EXPECTS(range > 0.0);
}

double GaussianKernel::operator()(double distance) const {
  PARMVN_EXPECTS(distance >= 0.0);
  const double z = distance / range_;
  return sigma2_ * std::exp(-z * z);
}

std::string GaussianKernel::name() const { return "gaussian"; }

std::string GaussianKernel::cache_key() const {
  return kernel_key("gaussian", sigma2_, range_, 0.0);
}

PoweredExponentialKernel::PoweredExponentialKernel(double sigma2, double range,
                                                   double power)
    : sigma2_(sigma2), range_(range), power_(power) {
  PARMVN_EXPECTS(sigma2 > 0.0);
  PARMVN_EXPECTS(range > 0.0);
  PARMVN_EXPECTS(power > 0.0 && power <= 2.0);
}

double PoweredExponentialKernel::operator()(double distance) const {
  PARMVN_EXPECTS(distance >= 0.0);
  return sigma2_ * std::exp(-std::pow(distance / range_, power_));
}

std::string PoweredExponentialKernel::name() const {
  return "powexp(p=" + std::to_string(power_) + ")";
}

std::string PoweredExponentialKernel::cache_key() const {
  return kernel_key("powexp", sigma2_, range_, power_);
}

std::unique_ptr<CovKernel> make_kernel(const std::string& kind, double sigma2,
                                       double range, double extra) {
  if (kind == "matern")
    return std::make_unique<MaternKernel>(sigma2, range, extra);
  if (kind == "exponential")
    return std::make_unique<ExponentialKernel>(sigma2, range);
  if (kind == "gaussian")
    return std::make_unique<GaussianKernel>(sigma2, range);
  if (kind == "powexp")
    return std::make_unique<PoweredExponentialKernel>(sigma2, range, extra);
  throw Error("unknown covariance kernel kind: " + kind);
}

}  // namespace parmvn::stats
