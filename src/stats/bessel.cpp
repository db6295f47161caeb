#include "stats/bessel.hpp"

#include <cmath>
#include <iterator>

#include "common/contracts.hpp"

namespace parmvn::stats {

namespace {

constexpr int kMaxIter = 20000;
constexpr double kEps = 1e-16;

// Even Taylor coefficients c_2, c_4, ..., c_22 of 1/Gamma(z) = sum_k c_k z^k
// (A&S 6.1.34, Wrench's values): 1/Gamma(1 -/+ mu) = sum_k c_k (-/+mu)^(k-1),
// so gam1 below is -(c_2 + c_4 mu^2 + c_6 mu^4 + ...).
constexpr double kRecipGammaEven[] = {
    0.5772156649015328606,   -0.0420026350340952355, -0.0421977345555443367,
    0.0072189432466630995,   -0.0002152416741149510, -0.0000201348547807882,
    0.0000011330272319817,   0.0000000061160951045,  -0.0000000011812745705,
    0.0000000000077822634,   0.0000000000005100370};

// Below this |mu| gam1 comes from the series: the difference form cancels,
// losing about eps/|mu| relative accuracy (ν near an integer).
constexpr double kGam1SeriesMu = 0.1;

// gam1 = [1/Gamma(1-mu) - 1/Gamma(1+mu)] / (2 mu)
// gam2 = [1/Gamma(1-mu) + 1/Gamma(1+mu)] / 2
// gampl = 1/Gamma(1+mu), gammi = 1/Gamma(1-mu); |mu| <= 1/2.
void temme_gammas(double mu, double& gam1, double& gam2, double& gampl,
                  double& gammi) {
  gampl = 1.0 / std::tgamma(1.0 + mu);
  gammi = 1.0 / std::tgamma(1.0 - mu);
  if (std::fabs(mu) < kGam1SeriesMu) {
    // Horner in mu^2 from the smallest term; at mu = 0 this is exactly
    // -c_2 = -EulerGamma, the limit of the difference quotient.
    const double mu2 = mu * mu;
    double s = 0.0;
    for (int k = static_cast<int>(std::size(kRecipGammaEven)) - 1; k >= 0; --k)
      s = s * mu2 + kRecipGammaEven[k];
    gam1 = -s;
  } else {
    gam1 = (gammi - gampl) / (2.0 * mu);
  }
  gam2 = 0.5 * (gammi + gampl);
}

// K_mu(x) and K_{mu+1}(x) for |mu| <= 1/2, 0 < x <= 2 (Temme's series).
void bessel_k_small(double mu, double x, double& kmu, double& kmu1) {
  const double x2 = 0.5 * x;
  const double pimu = M_PI * mu;
  const double fact =
      (std::fabs(pimu) < kEps) ? 1.0 : pimu / std::sin(pimu);
  // x = denorm_min halves to 0; log(2/x) = ln 2 - log x stays finite there
  // (every other x keeps the historical -log(x/2) bit for bit).
  double d = x2 > 0.0 ? -std::log(x2) : M_LN2 - std::log(x);
  double e = mu * d;
  const double fact2 = (std::fabs(e) < kEps) ? 1.0 : std::sinh(e) / e;
  double gam1, gam2, gampl, gammi;
  temme_gammas(mu, gam1, gam2, gampl, gammi);
  double ff = fact * (gam1 * std::cosh(e) + gam2 * fact2 * d);
  double sum = ff;
  e = std::exp(e);
  double p = 0.5 * e / gampl;
  double q = 0.5 / (e * gammi);
  double c = 1.0;
  const double d2 = x2 * x2;
  double sum1 = p;
  int i = 1;
  for (; i <= kMaxIter; ++i) {
    ff = (i * ff + p + q) / (i * i - mu * mu);
    c *= d2 / i;
    p /= (i - mu);
    q /= (i + mu);
    const double del = c * ff;
    sum += del;
    const double del1 = c * (p - i * ff);
    sum1 += del1;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  PARMVN_ASSERT(i <= kMaxIter);
  kmu = sum;
  kmu1 = sum1 * (2.0 / x);
}

// K_mu(x) and K_{mu+1}(x) for |mu| <= 1/2, x > 2 (Steed's CF2); returns the
// *scaled* values e^x K.
void bessel_k_cf2_scaled(double mu, double x, double& kmu, double& kmu1) {
  double b = 2.0 * (1.0 + x);
  double d = 1.0 / b;
  double h = d;
  double delh = d;
  double q1 = 0.0, q2 = 1.0;
  const double a1 = 0.25 - mu * mu;
  double q = a1, c = a1, a = -a1;
  double s = 1.0 + q * delh;
  int i = 2;
  for (; i <= kMaxIter; ++i) {
    a -= 2 * (i - 1);
    c = -a * c / i;
    const double qnew = (q1 - b * q2) / a;
    q1 = q2;
    q2 = qnew;
    q += c * qnew;
    b += 2.0;
    d = 1.0 / (b + a * d);
    delh = (b * d - 1.0) * delh;
    h += delh;
    const double dels = q * delh;
    s += dels;
    if (std::fabs(dels / s) < kEps) break;
  }
  PARMVN_ASSERT(i <= kMaxIter);
  h = a1 * h;
  kmu = std::sqrt(M_PI / (2.0 * x)) / s;  // scaled: e^x K_mu(x)
  kmu1 = kmu * (mu + x + 0.5 - h) / x;
}

double bessel_k_impl(double nu, double x, bool scaled) {
  PARMVN_EXPECTS(x > 0.0);
  nu = std::fabs(nu);  // K_{-nu}(x) == K_nu(x)
  const int nl = static_cast<int>(nu + 0.5);  // recurrence steps
  const double mu = nu - nl;                  // |mu| <= 1/2
  double kmu, kmu1;
  bool have_scaled = false;
  if (x <= 2.0) {
    bessel_k_small(mu, x, kmu, kmu1);
  } else {
    bessel_k_cf2_scaled(mu, x, kmu, kmu1);
    have_scaled = true;
  }
  // Upward recurrence K_{m+1}(x) = K_{m-1}(x) + 2m/x K_m(x) (stable for K).
  for (int i = 1; i <= nl; ++i) {
    const double knext = kmu + (2.0 * (mu + i) / x) * kmu1;
    kmu = kmu1;
    kmu1 = knext;
  }
  double result = kmu;  // == K_nu
  if (scaled && !have_scaled) result *= std::exp(x);
  if (!scaled && have_scaled) result *= std::exp(-x);
  return result;
}

}  // namespace

double bessel_k(double nu, double x) { return bessel_k_impl(nu, x, false); }

double bessel_k_scaled(double nu, double x) {
  return bessel_k_impl(nu, x, true);
}

}  // namespace parmvn::stats
