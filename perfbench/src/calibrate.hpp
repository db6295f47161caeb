// Host-speed calibration: a fixed compute kernel owned by the benchmark,
// timed beside the workload so that its CPU time can be expressed at a
// nominal host speed.
#pragma once

#include <vector>

#include "report.hpp"

namespace perfbench {

/// Run the calibration kernel once on `threads` threads at once and return
/// the CPU-seconds the process spent on it. The kernel mixes the workloads'
/// kinds of work: Matérn covariance entries (Bessel K), normal tail
/// probabilities, and a cache-resident dense multiply-add. It is benchmark
/// code, so no change to the library moves it.
[[nodiscard]] double calibration_cpu_s(int threads);

/// The calibration's CPU time at the nominal host speed: a fixed scale.
/// Reported times read as if the calibration had taken this long (on a
/// shared 4-vCPU 2.1 GHz Xeon host it took 0.25-0.32 CPU-s per run).
inline constexpr double kNominalCalibrationS = 0.2;

/// Calibrations per run.
inline constexpr std::size_t kCalibrations = 20;

/// The calibrations taken through one run. The host's speed changes over
/// minutes, not within a run, so the median of all of them is the run's
/// speed; it is steadier than the calibrations next to any one piece of
/// work.
class HostSpeed {
 public:
  explicit HostSpeed(int threads) : threads_(threads) {}
  void calibrate() { samples_.push_back(calibration_cpu_s(threads_)); }
  /// Calibrate until the run holds `count` calibrations: a single one
  /// varies by 5-10% with what other tenants do during its ~0.1 s, so the
  /// run's speed needs many.
  void calibrate_until(std::size_t count) {
    while (samples_.size() < count) calibrate();
  }
  /// `cpu_s` measured in this run, at the nominal host speed.
  [[nodiscard]] double nominal(double cpu_s) const {
    return cpu_s * kNominalCalibrationS / median(samples_);
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  int threads_;
  std::vector<double> samples_;
};

}  // namespace perfbench
