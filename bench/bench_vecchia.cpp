// Factor-backend comparison for the Vecchia arm, two experiments:
//
//  1. pmvn_vs_tlr — on sizes where a dense factor is still affordable,
//     integrate the same box with the dense (truth), TLR and Vecchia arms
//     and report each approximation's probability error and wall time
//     (build + sweep). Vecchia trades the TLR compression error for the
//     conditioning-set truncation error at O(n m^3) build cost.
//
//  2. crd_100k — the confidence-region sweep on a >= 100k-site grid, the
//     scale the Vecchia arm exists for (a dense factor would need ~80 GB
//     and O(n^3) time). Runs under every worker count and verifies the
//     determinism contract: the confidence function and region must be
//     bitwise identical across all runs.
//
// The numbers land in BENCH_vecchia.json at the repo root (regenerate
// with:  ./bench_vecchia --json > ../BENCH_vecchia.json ).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "core/excursion.hpp"
#include "engine/cholesky_factor.hpp"
#include "engine/pmvn_engine.hpp"
#include "geo/covgen.hpp"
#include "geo/geometry.hpp"
#include "runtime/runtime.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace parmvn;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Row {
  i64 n = 0;
  const char* arm = "";
  i64 param = 0;  // TLR tile or Vecchia m
  double prob = 0.0;
  double err3 = 0.0;
  double abs_err = 0.0;  // |prob - dense prob|
  double build_s = 0.0;
  double sweep_s = 0.0;
};

engine::EngineOptions sweep_opts() {
  engine::EngineOptions o;
  o.samples_per_shift = 500;
  o.shifts = 10;
  o.sampler = stats::SamplerKind::kRichtmyer;
  return o;
}

// Factor `gen` as `spec`, then one fixed-seed query: the row's probability,
// error bar, build and sweep time.
Row factor_and_sweep(rt::Runtime& rt, const la::MatrixGenerator& gen,
                     const engine::FactorSpec& spec, const char* arm,
                     i64 param, std::span<const double> a,
                     std::span<const double> b) {
  auto factor = std::make_shared<const engine::CholeskyFactor>(
      engine::CholeskyFactor::factor(rt, gen, spec));
  const engine::QueryResult r =
      engine::PmvnEngine(rt, factor, sweep_opts()).evaluate_one({a, b, 20240517});
  return {gen.rows(), arm,       param, r.prob, r.error3sigma, /*abs_err=*/0.0,
          factor->factor_seconds(), r.seconds};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  if (!json)
    bench::header("Factor backends", "Vecchia vs TLR accuracy and wall time",
                  args);

  rt::Runtime rt(args.threads > 0 ? static_cast<int>(args.threads)
                                  : default_num_threads());

  // ---- experiment 1: accuracy/time against dense truth ----
  const std::vector<i64> sides =
      args.quick ? std::vector<i64>{20} : std::vector<i64>{32, 48};
  std::vector<Row> rows;
  for (const i64 side : sides) {
    geo::LocationSet locs = geo::regular_grid(side, side);
    locs = geo::apply_permutation(locs, geo::morton_order(locs));
    // Long range + a wide box keep the joint probability well above the QMC
    // noise floor, so the cross-arm deltas measure approximation error, not
    // sampling noise.
    auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.4);
    const geo::KernelCovGenerator gen(locs, kernel, 1e-6);
    const i64 n = gen.rows();
    const std::vector<double> a(static_cast<std::size_t>(n), -2.0);
    const std::vector<double> b(static_cast<std::size_t>(n), kInf);

    const Row rd = factor_and_sweep(rt, gen, {engine::FactorKind::kDense, 256},
                                    "dense", 256, a, b);
    rows.push_back(rd);

    // The smooth long-range correlation is severely ill-conditioned, so the
    // TLR tolerance must sit well below the smallest eigenvalues it needs
    // to preserve — 1e-3 (the paper's sweep value for short ranges) factors
    // to a visibly wrong probability here.
    rows.push_back(factor_and_sweep(
        rt, gen, {engine::FactorKind::kTlr, 256, 1e-7, -1}, "tlr", 256, a, b));

    for (const i64 m : {15, 30, 60})
      rows.push_back(factor_and_sweep(
          rt, gen, {engine::FactorKind::kVecchia, 256, 0.0, -1, m}, "vecchia",
          m, a, b));
    for (Row& r : rows)
      if (r.n == n) r.abs_err = std::abs(r.prob - rd.prob);
    if (!json) {
      for (const Row& r : rows)
        if (r.n == n)
          std::printf("n=%lld %s(%lld): p=%.6e err3=%.1e |dp|=%.2e "
                      "build=%.3fs sweep=%.3fs\n",
                      static_cast<long long>(r.n), r.arm,
                      static_cast<long long>(r.param), r.prob, r.err3,
                      r.abs_err, r.build_s, r.sweep_s);
      std::fflush(stdout);
    }
  }

  // ---- experiment 2: confidence regions at >= 100k sites ----
  const i64 crd_side = args.quick ? 64 : 320;
  const i64 crd_n = crd_side * crd_side;
  const geo::LocationSet locs = geo::regular_grid(crd_side, crd_side);
  auto kernel = std::make_shared<stats::ExponentialKernel>(1.0, 0.05);
  const geo::KernelCovGenerator cov(locs, kernel, 1e-6);
  std::vector<double> mean(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const double dx = locs[i].x - 0.4;
    const double dy = locs[i].y - 0.55;
    mean[i] = 3.5 * std::exp(-14.0 * (dx * dx + dy * dy));
  }
  core::CrdOptions copts;
  copts.threshold = 1.0;
  copts.alpha = 0.1;
  copts.mode = core::CrdMode::kVecchia;
  copts.vecchia_m = 30;
  copts.tile = 256;
  copts.pmvn.samples_per_shift = 100;
  copts.pmvn.shifts = 4;
  copts.pmvn.sampler = stats::SamplerKind::kRichtmyer;
  copts.seed = 20240517;

  struct CrdRun {
    int workers;
    double factor_s, sweep_s;
    i64 region_size;
  };
  std::vector<CrdRun> crd_runs;
  std::vector<double> ref_conf;
  bool bitwise = true;
  for (const int workers : {1, 2, 8}) {
    rt::Runtime crt(workers);
    const core::CrdResult r =
        core::detect_confidence_region(crt, cov, mean, copts);
    if (ref_conf.empty()) {
      ref_conf = r.confidence;
    } else {
      for (std::size_t i = 0; i < ref_conf.size(); ++i)
        if (r.confidence[i] != ref_conf[i]) bitwise = false;
    }
    crd_runs.push_back(
        {workers, r.factor_seconds, r.sweep_seconds, r.region_size});
    if (!json)
      std::printf("crd n=%lld m=30 workers=%d factor=%.2fs sweep=%.2fs "
                  "region=%lld\n",
                  static_cast<long long>(crd_n), workers, r.factor_seconds,
                  r.sweep_seconds, static_cast<long long>(r.region_size));
    std::fflush(stdout);
  }
  if (!json)
    std::printf("crd determinism across workers: %s\n",
                bitwise ? "bitwise" : "FAILED");

  if (json) {
    std::printf("{\n  \"bench\": \"vecchia\",\n  \"host_cpus\": %d,\n",
                default_num_threads());
    std::printf("  \"pmvn_vs_tlr\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"n\": %lld, \"arm\": \"%s\", \"param\": %lld, "
                  "\"prob\": %.6e, \"err3sigma\": %.3e, \"abs_err_vs_dense\": "
                  "%.3e, \"build_s\": %.3e, \"sweep_s\": %.3e}%s\n",
                  static_cast<long long>(r.n), r.arm,
                  static_cast<long long>(r.param), r.prob, r.err3, r.abs_err,
                  r.build_s, r.sweep_s, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"crd\": {\"n\": %lld, \"vecchia_m\": 30, \"tile\": 256, "
                "\"qmc_samples\": 400, \"bitwise_across_runs\": %s, "
                "\"runs\": [\n",
                static_cast<long long>(crd_n), bitwise ? "true" : "false");
    for (std::size_t i = 0; i < crd_runs.size(); ++i) {
      const CrdRun& r = crd_runs[i];
      std::printf("    {\"workers\": %d, \"factor_s\": %.3e, \"sweep_s\": "
                  "%.3e, \"region_size\": %lld}%s\n",
                  r.workers, r.factor_s, r.sweep_s,
                  static_cast<long long>(r.region_size),
                  i + 1 < crd_runs.size() ? "," : "");
    }
    std::printf("  ]}\n}\n");
  }
  return bitwise ? 0 : 1;
}
