#include "calibrate.hpp"

#include <cmath>
#include <thread>
#include <vector>

#include "report.hpp"

namespace perfbench {
namespace {

constexpr double kNu = 1.43391;  // the wind field's Matérn smoothness
constexpr int kScalarEntries = 36000;
constexpr int kDense = 64;
constexpr int kDenseReps = 144;

double kernel(int salt) {
  double acc = 0.0;
  for (int i = 0; i < kScalarEntries; ++i) {
    const double z = 0.02 + 0.004 * ((i * 7 + salt) % 1000);
    acc += std::pow(z, kNu) * std::cyl_bessel_k(kNu, z);
  }
  for (int i = 0; i < 40 * kScalarEntries; ++i) {
    const double x = -4.0 + 0.008 * ((i * 13 + salt) % 1000);
    acc += std::log(0.5 * std::erfc(-x * M_SQRT1_2) + 1e-300);
  }
  std::vector<double> a(kDense * kDense), b(kDense * kDense),
      c(kDense * kDense, 0.0);
  for (int i = 0; i < kDense * kDense; ++i) {
    a[i] = 1.0 / (1 + (i + salt) % 7);
    b[i] = 0.5 / (1 + i % 5);
  }
  for (int r = 0; r < kDenseReps; ++r)
    for (int i = 0; i < kDense; ++i)
      for (int k = 0; k < kDense; ++k) {
        const double aik = a[i * kDense + k];
        for (int j = 0; j < kDense; ++j)
          c[i * kDense + j] += aik * b[k * kDense + j];
      }
  return acc + c[salt % (kDense * kDense)];
}

}  // namespace

double calibration_cpu_s(int threads) {
  std::vector<double> sums(static_cast<std::size_t>(threads), 0.0);
  const double cpu0 = process_cpu_s();
  {
    std::vector<std::jthread> pool;  // joined when the block ends
    for (int t = 0; t < threads; ++t)
      pool.emplace_back(
          [&sums, t] { sums[static_cast<std::size_t>(t)] = kernel(t); });
  }
  const double cpu = process_cpu_s() - cpu0;
  // The sums keep the kernel from being optimized away.
  volatile double sink = 0.0;
  for (const double s : sums) sink = sink + s;
  return cpu;
}

}  // namespace perfbench
