#include "dist/cost_model.hpp"

#include <algorithm>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "stats/normal.hpp"
#include "tlr/tlr_potrf.hpp"

namespace parmvn::dist {

namespace {

double rate(const MachineModel& m) noexcept {
  return std::max(m.gflops_per_core, 1e-9) * 1e9;
}

double stream_rate(const MachineModel& m) noexcept {
  return rate(m) * std::clamp(m.stream_efficiency, 1e-6, 1.0);
}

double d(i64 v) noexcept { return static_cast<double>(v); }

}  // namespace

double transfer_seconds(const MachineModel& m, i64 bytes) noexcept {
  return m.latency_s + d(std::max<i64>(bytes, 0)) / m.bandwidth_bytes_per_s;
}

double cost_potrf(const MachineModel& m, i64 nb) noexcept {
  return d(nb) * d(nb) * d(nb) / 3.0 / rate(m);
}

double cost_trsm(const MachineModel& m, i64 nb) noexcept {
  return d(nb) * d(nb) * d(nb) / rate(m);
}

double cost_syrk(const MachineModel& m, i64 nb) noexcept {
  return d(nb) * d(nb) * d(nb) / rate(m);
}

double cost_gemm(const MachineModel& m, i64 nb) noexcept {
  return 2.0 * d(nb) * d(nb) * d(nb) / rate(m);
}

double cost_tlr_trsm(const MachineModel& m, i64 nb, i64 rank) noexcept {
  // Solve L X = V against the rank columns of the tile's V factor.
  return d(nb) * d(nb) * d(rank) / rate(m);
}

double cost_tlr_syrk(const MachineModel& m, i64 nb, i64 rank) noexcept {
  // Diagonal update by a low-rank product: (U V^T)(U V^T)^T into nb x nb.
  return (2.0 * d(nb) * d(nb) * d(rank) + 2.0 * d(nb) * d(rank) * d(rank)) /
         rate(m);
}

double cost_tlr_gemm(const MachineModel& m, i64 nb, i64 rank_a, i64 rank_b,
                     i64 rank_c) noexcept {
  // HiCMA low-rank GEMM: small inner products plus the QR/SVD recompression
  // of the C tile with the update appended, counted exactly as the TLR
  // Cholesky runs it.
  return tlr::lr_update_flops(d(nb), d(nb), d(rank_a), d(rank_b), d(rank_c)) /
         rate(m);
}

double cost_pmvn_qmc(const MachineModel& m, i64 nb, i64 nc) noexcept {
  // Per sample: a dtrsv-like propagation within the diagonal tile (nb^2
  // flops) plus nb integrand entries.
  return d(nc) * (d(nb) * d(nb) + kQmcFlopsPerEntry * d(nb)) / stream_rate(m);
}

double cost_pmvn_update_dense(const MachineModel& m, i64 nb, i64 nc) noexcept {
  // GEMM of the nb x nb factor tile into an nb x nc sample panel.
  return 2.0 * d(nb) * d(nb) * d(nc) / stream_rate(m);
}

double cost_pmvn_update_tlr(const MachineModel& m, i64 nb, i64 nc,
                            i64 rank) noexcept {
  // U (V^T Y): two skinny GEMMs through the rank.
  return 4.0 * d(nb) * d(rank) * d(nc) / stream_rate(m);
}

HostCalibration calibrate_host(i64 n) {
  PARMVN_EXPECTS(n >= 8);
  HostCalibration cal;

  // dgemm probe: repeat until >= 20 ms of work has been timed.
  {
    la::Matrix a(n, n), b(n, n), c(n, n);
    for (i64 j = 0; j < n; ++j)
      for (i64 i = 0; i < n; ++i) {
        a(i, j) = 1.0 / d(1 + i + j);
        b(i, j) = 1.0 / d(1 + ((i * 7 + j) % 13));
      }
    const double flops = 2.0 * d(n) * d(n) * d(n);
    WallTimer timer;
    i64 reps = 0;
    do {
      la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, a.view(), b.view(),
               reps == 0 ? 0.0 : 1.0, c.view());
      ++reps;
    } while (timer.seconds() < 0.02);
    cal.gflops = flops * d(reps) / timer.seconds() / 1e9;
    PARMVN_ENSURES(c(0, 0) != 0.0);  // keep the probe observable
  }

  // Integrand probe: Phi^-1 followed by Phi, the pair evaluated once per
  // matrix entry — through the batched primitives, the way the
  // sample-contiguous sweep actually runs them, so stream_efficiency
  // reflects the vectorized (or fallback) integrand rate of this build.
  {
    const i64 nv = 4096;
    std::vector<double> u(static_cast<std::size_t>(nv));
    std::vector<double> q(static_cast<std::size_t>(nv));
    std::vector<double> f(static_cast<std::size_t>(nv));
    double v = 0.3;
    for (i64 i = 0; i < nv; ++i) {
      v = v * 0.999 + 0.0003;  // stays in (0, 1)
      u[static_cast<std::size_t>(i)] = v;
    }
    double sink = 0.0;
    WallTimer timer;
    i64 reps = 0;
    do {
      stats::norm_quantile_batch(nv, u.data(), q.data());
      for (i64 i = 0; i < nv; ++i)
        q[static_cast<std::size_t>(i)] *= 0.5;
      stats::norm_cdf_batch(nv, q.data(), f.data());
      sink += f[0];
      ++reps;
    } while (timer.seconds() < 0.02);
    const double elapsed = timer.seconds();
    PARMVN_ENSURES(sink > 0.0);
    cal.qmc_ns_per_entry = elapsed * 1e9 / (d(reps) * d(nv));
  }
  return cal;
}

MachineModel calibrated_machine(const HostCalibration& cal,
                                const MachineModel& base) noexcept {
  MachineModel m = base;
  if (cal.gflops > 0.0) m.gflops_per_core = cal.gflops;
  if (cal.gflops > 0.0 && cal.qmc_ns_per_entry > 0.0) {
    // The integrand probe measures ns per entry; at kQmcFlopsPerEntry flops
    // charged per entry that is an effective GFlop/s rate, and the sweep
    // kernels run at that rate relative to dgemm.
    const double qmc_gflops = kQmcFlopsPerEntry / cal.qmc_ns_per_entry;
    m.stream_efficiency = std::clamp(qmc_gflops / cal.gflops, 1e-3, 1.0);
  }
  return m;
}

}  // namespace parmvn::dist
