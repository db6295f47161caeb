// The synthetic wind field every workload runs on: a regular grid on the
// unit square, the Matérn anomaly covariance of geo::WindOptions (sigma^2
// 1.2 (m/s)^2, smoothness 1.43391) at a given range plus a 1e-6 nugget, and
// the orographic mean speed geo::wind_mean_speed. Thresholds are in m/s.
#pragma once

#include <memory>
#include <vector>

#include "geo/covgen.hpp"

namespace perfbench {

inline constexpr double kWindRange = 0.08;
inline constexpr double kWindNugget = 1e-6;

struct WindField {
  std::shared_ptr<const parmvn::geo::KernelCovGenerator> cov;
  std::vector<double> mean;  // m/s per site
  [[nodiscard]] parmvn::i64 n() const { return cov->rows(); }
};

[[nodiscard]] WindField make_wind_field(parmvn::i64 nx, parmvn::i64 ny,
                                        double range = kWindRange);

/// Sites by descending mean (stable): the marginal ordering of every
/// threshold on this constant-variance field.
[[nodiscard]] std::vector<parmvn::i64> descending_mean_order(
    const WindField& field);

/// Lower limits of the excursion event {X > u} in the factor's ordered,
/// standardised space: a[k] = (u - mean[order[k]]) / sd[order[k]].
[[nodiscard]] std::vector<double> ordered_limits(
    const WindField& field, const std::vector<parmvn::i64>& order,
    const std::vector<double>& sd, double u);

/// Size of the confidence region implied by prefix probabilities along the
/// ordering: sites whose running-minimum prefix probability is >= level.
[[nodiscard]] parmvn::i64 region_size_from_prefix(
    const std::vector<double>& prefix_prob, double level);

}  // namespace perfbench
