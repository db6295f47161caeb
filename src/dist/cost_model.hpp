// Analytic kernel/network cost model for the simulated distributed-memory
// system (the paper's Cray XC40 "Shaheen II" runs, Sec. V-D).
//
// Every tile kernel is mapped to a flop count divided by a per-core
// sustained rate; transfers follow the classic latency + size/bandwidth
// model. Bandwidth-bound sweep kernels (QMC sampling and the per-sample
// GEMM propagation read a panel per tile) run at `stream_efficiency` of the
// dgemm rate — the reason the paper's end-to-end TLR speedup (1.3-1.8x)
// trails its Cholesky-only speedup (1.9-5.2x).
#pragma once

#include "common/types.hpp"

namespace parmvn::dist {

struct MachineModel {
  i64 cores_per_node = 1;
  double gflops_per_core = 1.0;        // sustained per-core dgemm rate
  double latency_s = 1e-6;             // per-message network latency
  double bandwidth_bytes_per_s = 1e9;  // per-link network bandwidth
  double stream_efficiency = 0.25;     // sweep-kernel rate / dgemm rate

  /// Cray XC40 (Shaheen II): dual 16-core Haswell nodes, Aries dragonfly.
  [[nodiscard]] static MachineModel cray_xc40() noexcept {
    MachineModel m;
    m.cores_per_node = 32;
    m.gflops_per_core = 20.0;
    m.latency_s = 1.5e-6;
    m.bandwidth_bytes_per_s = 8e9;
    m.stream_efficiency = 0.25;
    return m;
  }
};

/// Seconds to move `bytes` between two nodes; latency floor at zero bytes.
[[nodiscard]] double transfer_seconds(const MachineModel& m, i64 bytes) noexcept;

// Dense tile kernels (tile size nb).
[[nodiscard]] double cost_potrf(const MachineModel& m, i64 nb) noexcept;
[[nodiscard]] double cost_trsm(const MachineModel& m, i64 nb) noexcept;
[[nodiscard]] double cost_syrk(const MachineModel& m, i64 nb) noexcept;
[[nodiscard]] double cost_gemm(const MachineModel& m, i64 nb) noexcept;

// TLR tile kernels (HiCMA-style; rank(s) of the low-rank operands).
[[nodiscard]] double cost_tlr_trsm(const MachineModel& m, i64 nb,
                                   i64 rank) noexcept;
[[nodiscard]] double cost_tlr_syrk(const MachineModel& m, i64 nb,
                                   i64 rank) noexcept;
/// C -= A B^T with A, B, C of ranks rank_a, rank_b, rank_c (see
/// tlr::lr_update_flops).
[[nodiscard]] double cost_tlr_gemm(const MachineModel& m, i64 nb, i64 rank_a,
                                   i64 rank_b, i64 rank_c) noexcept;

// PMVN sweep kernels for a panel of `nc` sample columns.
[[nodiscard]] double cost_pmvn_qmc(const MachineModel& m, i64 nb,
                                   i64 nc) noexcept;
[[nodiscard]] double cost_pmvn_update_dense(const MachineModel& m, i64 nb,
                                            i64 nc) noexcept;
[[nodiscard]] double cost_pmvn_update_tlr(const MachineModel& m, i64 nb,
                                          i64 nc, i64 rank) noexcept;

/// Flops-per-entry charged for one QMC integrand entry (uniform -> shifted
/// point, Phi, Phi^-1, product update). erfc/log dominate; ~60 flops is the
/// conventional equivalent. Shared by the cost model and the calibration
/// inversion below.
inline constexpr double kQmcFlopsPerEntry = 60.0;

/// Micro-benchmarked host parameters, for pinning the simulator's
/// MachineModel to the machine actually running the benches.
struct HostCalibration {
  double gflops = 0.0;            // sustained dgemm rate, one core
  double qmc_ns_per_entry = 0.0;  // ns per Phi/Phi^-1 pair in the integrand
};

/// Probe this host with an n x n dgemm and a quantile/CDF loop.
[[nodiscard]] HostCalibration calibrate_host(i64 n);

/// MachineModel whose compute parameters come from calibrate_host() probes:
/// gflops_per_core is the measured dgemm rate and stream_efficiency is the
/// measured integrand rate (kQmcFlopsPerEntry / qmc_ns_per_entry, in
/// GFlop/s) divided by the dgemm rate. Network parameters are taken from
/// `base`, and a degenerate probe (non-positive readings) falls back to the
/// corresponding analytic `base` value — by default Cray XC40's documented
/// stream_efficiency = 0.25.
[[nodiscard]] MachineModel calibrated_machine(
    const HostCalibration& cal,
    const MachineModel& base = MachineModel::cray_xc40()) noexcept;

}  // namespace parmvn::dist
