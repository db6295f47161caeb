#include "wind.hpp"

#include <algorithm>
#include <numeric>

#include "geo/geometry.hpp"
#include "geo/wind.hpp"
#include "stats/covariance.hpp"

namespace perfbench {

using parmvn::i64;

WindField make_wind_field(i64 nx, i64 ny, double range) {
  const parmvn::geo::WindOptions defaults;
  parmvn::geo::LocationSet locs = parmvn::geo::regular_grid(nx, ny);
  WindField field;
  field.mean.reserve(locs.size());
  for (const parmvn::geo::Point& p : locs)
    field.mean.push_back(parmvn::geo::wind_mean_speed(p.x, p.y));
  auto kernel = std::make_shared<parmvn::stats::MaternKernel>(
      defaults.gp_sigma2, range, defaults.gp_smoothness);
  field.cov = std::make_shared<parmvn::geo::KernelCovGenerator>(
      std::move(locs), std::move(kernel), kWindNugget);
  return field;
}

std::vector<i64> descending_mean_order(const WindField& field) {
  std::vector<i64> order(field.mean.size());
  std::iota(order.begin(), order.end(), i64{0});
  std::stable_sort(order.begin(), order.end(), [&](i64 x, i64 y) {
    return field.mean[static_cast<std::size_t>(x)] >
           field.mean[static_cast<std::size_t>(y)];
  });
  return order;
}

std::vector<double> ordered_limits(const WindField& field,
                                   const std::vector<i64>& order,
                                   const std::vector<double>& sd, double u) {
  std::vector<double> a(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto site = static_cast<std::size_t>(order[k]);
    a[k] = (u - field.mean[site]) / sd[site];
  }
  return a;
}

i64 region_size_from_prefix(const std::vector<double>& prefix_prob,
                            double level) {
  i64 size = 0;
  double running = 1.0;
  for (const double p : prefix_prob) {
    running = std::min(running, p);
    if (running < level) break;
    ++size;
  }
  return size;
}

}  // namespace perfbench
