#include "engine/pmvn_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "ep/ep_screen.hpp"
#include "common/timer.hpp"
#include "core/qmc_kernel.hpp"
#include "linalg/matrix.hpp"
#include "runtime/priority.hpp"
#include "vecchia/vecchia_kernel.hpp"

namespace parmvn::engine {

namespace {

// One column tile of the fused batch panel: a tile-width slice of one
// query's samples. Column tiles never straddle queries — that alignment is
// what makes batched arithmetic bitwise identical to single-query runs.
struct ColTile {
  i64 query = 0;    // index into the batch
  i64 sample0 = 0;  // global sample offset within that query's stream
  i64 col0 = 0;     // column offset inside the wide panel
  i64 width = 0;
};

// Decision clearance: the interval mean +/- err lies entirely on one side
// of the threshold. A NaN threshold compares false on both sides, so
// "no decision" falls out without a separate flag.
bool clears_decision(double mean, double err, double decision) {
  return mean - err > decision || mean + err < decision;
}

}  // namespace

void EngineOptions::validate() const {
  const auto reject = [](const std::string& what) {
    throw Error("EngineOptions: " + what);
  };
  if (samples_per_shift < 1) reject("samples_per_shift must be >= 1");
  if (shifts < 1) reject("shifts must be >= 1");
  if (panel_bytes < 1) reject("panel_bytes must be >= 1");
  if (deadline_ms < 0) reject("deadline_ms must be >= 0");
  if (antithetic && shifts % 2 != 0)
    reject("antithetic pairing requires an even shift count");
  if (!(abs_tol >= 0.0) || !std::isfinite(abs_tol))
    reject("abs_tol must be finite and >= 0");
  if (!(ep_margin >= 0.0) || !std::isfinite(ep_margin))
    reject("ep_margin must be finite and >= 0");
  if (adaptive) {
    // The running estimate gates stop decisions, so at least two
    // (independent) blocks are required before the first check.
    if (shifts < 2) reject("adaptive evaluation requires shifts >= 2");
    if (min_shifts < 2 || min_shifts > shifts)
      reject("min_shifts must lie in [2, shifts]");
  }
}

PmvnEngine::PmvnEngine(rt::Runtime& rt,
                       std::shared_ptr<const CholeskyFactor> factor,
                       EngineOptions opts)
    : rt_(rt), factor_(std::move(factor)), opts_(opts) {
  PARMVN_EXPECTS(factor_ != nullptr);
  opts_.validate();
}

QueryResult PmvnEngine::evaluate_one(const LimitSet& query) const {
  std::vector<QueryResult> results = evaluate({&query, 1});
  return std::move(results.front());
}

std::vector<QueryResult> PmvnEngine::evaluate(
    std::span<const LimitSet> queries) const {
  // The whole evaluation (EP screens included — they share the factor's
  // SiteCache and precede the sweep's submit…wait_all rounds) runs as one
  // exclusive epoch, so host threads sharing `rt_` can evaluate
  // concurrently without racing submit() against wait_all().
  const auto epoch = rt_.exclusive_epoch();
  if (!opts_.tiered) return evaluate_qmc(queries);
  const i64 nq = static_cast<i64>(queries.size());
  if (nq == 0) return {};

  const WallTimer screen_timer;
  const double deadline_s = static_cast<double>(opts_.deadline_ms) / 1000.0;
  std::vector<QueryResult> results(static_cast<std::size_t>(nq));
  std::vector<char> retired(static_cast<std::size_t>(nq), 0);
  const double margin = opts_.ep_margin;
  ep::SiteCache& cache = factor_->ep_cache();
  // One screener for the whole batch: the O(nnz) factor-row flatten is
  // query-independent and dominates a single screen's cost at engine sizes.
  std::optional<ep::EpScreener> screener;

  for (i64 q = 0; q < nq; ++q) {
    // The deadline budget covers the screen tier too: once it expires, the
    // remaining queries skip their screens and face it again in the QMC
    // round loop (which always grants them one shift block).
    if (opts_.deadline_ms > 0 && screen_timer.seconds() >= deadline_s) break;
    const LimitSet& query = queries[static_cast<std::size_t>(q)];
    // Only queries carrying a decision threshold can be screened: without
    // one there is nothing for the EP band to decide, so the query goes
    // straight to QMC.
    if (std::isnan(query.decision)) continue;
    ep::EpResult er;
    try {
      if (!screener.has_value()) screener.emplace(factor_->backend());
      ep::EpState state;
      // Warm-start on exact limit repeats only (max_distance 0): a repeat
      // certifies its cached fixed point in one damped sweep, while a merely
      // nearby seed fails the certify and pays the direct solve on top.
      if (std::optional<ep::EpState> hit =
              cache.lookup(query.a, query.b, /*max_distance=*/0.0))
        state = std::move(*hit);
      er = screener->screen(query.a, query.b, {}, &state);
      if (er.converged) cache.store(query.a, query.b, std::move(state));
    } catch (const std::exception&) {
      // A failed screen demotes the query to the authoritative QMC tier —
      // the screen only ever *skips* work, so its failure never aborts the
      // batch or the sibling screens.
      continue;
    }
    if (!er.converged) continue;
    // A non-finite EP estimate cannot be trusted to clear anything: demote
    // to QMC rather than retire on garbage (the prefix walk below likewise
    // refuses non-finite rows, since NaN fails both clearance comparisons).
    if (!std::isfinite(er.logz)) continue;
    // Decision clearance against the EP band. Non-prefix: the scalar
    // probability must sit at least `margin` clear of the threshold.
    // Prefix: walk the (monotone non-increasing) curve; a row at least
    // `margin` below the threshold decides every later row at once, and
    // every row must be decided for the query to retire.
    const double decision = query.decision;
    bool decided;
    if (!query.prefix) {
      const double prob = std::exp(er.logz);
      decided = prob - margin > decision || prob + margin < decision;
    } else {
      decided = true;
      for (const double lz : er.prefix_logz) {
        const double prob = std::exp(lz);
        if (prob + margin < decision) break;  // monotone: rest decided
        if (!(prob - margin > decision)) {
          decided = false;
          break;
        }
      }
    }
    if (!decided) continue;
    QueryResult& res = results[static_cast<std::size_t>(q)];
    res.prob = std::exp(er.logz);
    res.error3sigma = margin;
    res.samples_used = 0;
    res.shifts_used = 0;
    res.converged = true;
    res.method = EvalMethod::kEp;
    if (query.prefix) {
      res.prefix_prob.reserve(er.prefix_logz.size());
      for (const double lz : er.prefix_logz)
        res.prefix_prob.push_back(std::exp(lz));
    }
    retired[static_cast<std::size_t>(q)] = 1;
  }
  const double screen_seconds = screen_timer.seconds();

  // Straddlers (and decision-free queries) run through the untiered QMC
  // sweep as a sub-batch; batch transparency makes their numbers bitwise
  // identical to the full untiered batch.
  std::vector<LimitSet> rest;
  std::vector<i64> rest_idx;
  for (i64 q = 0; q < nq; ++q)
    if (retired[static_cast<std::size_t>(q)] == 0) {
      rest.push_back(queries[static_cast<std::size_t>(q)]);
      rest_idx.push_back(q);
    }
  if (!rest.empty()) {
    std::vector<QueryResult> sub = evaluate_qmc(rest, screen_seconds);
    for (std::size_t i = 0; i < rest_idx.size(); ++i)
      results[static_cast<std::size_t>(rest_idx[i])] = std::move(sub[i]);
  }
  for (i64 q = 0; q < nq; ++q)
    if (retired[static_cast<std::size_t>(q)] != 0)
      results[static_cast<std::size_t>(q)].seconds = screen_seconds;
  return results;
}

std::vector<QueryResult> PmvnEngine::evaluate_qmc(
    std::span<const LimitSet> queries, double elapsed_s) const {
  const WallTimer timer;
  const CholeskyFactor& f = *factor_;
  const i64 n = f.dim();
  const i64 m = f.tile_size();
  const i64 mt = f.row_tiles();
  const i64 nq = static_cast<i64>(queries.size());
  if (nq == 0) return {};
  for (const LimitSet& q : queries) {
    PARMVN_EXPECTS(static_cast<i64>(q.a.size()) == n);
    PARMVN_EXPECTS(static_cast<i64>(q.b.size()) == n);
  }
  const i64 sps = opts_.samples_per_shift;
  const i64 num_samples = opts_.total_samples();

  // One deterministic point set per query, keyed by the query's seed — or
  // by the shared CRN seed, so nearby limit sets (bisection iterates) see
  // common random numbers.
  std::vector<stats::PointSet> pts;
  pts.reserve(static_cast<std::size_t>(nq));
  for (const LimitSet& q : queries)
    pts.emplace_back(opts_.sampler, n, sps, opts_.shifts,
                     opts_.crn ? opts_.crn_seed : q.seed, opts_.antithetic);

  std::vector<std::vector<double>> p(static_cast<std::size_t>(nq));
  for (auto& pq : p) pq.assign(static_cast<std::size_t>(num_samples), 1.0);

  // Per-query prefix accumulators. The fixed-budget path keeps one running
  // length-n total; the adaptive path keeps per-shift sums (n per shift) so
  // every prefix row gets its own block-mean error estimate. Both are
  // addressed through the per-sweep `prefix_target` pointers.
  std::vector<std::vector<double>> prefix_store(static_cast<std::size_t>(nq));
  std::vector<double*> prefix_target(static_cast<std::size_t>(nq), nullptr);

  std::vector<rt::DataAccess> wide_accesses;  // reused across submits

  // One fused sweep of the sample range [s_begin, s_end) for the queries in
  // `active`: the whole-budget loop of the fixed path with the range and the
  // participant set as parameters. Per-sample probability products land in
  // p[q]; range prefix sums land at prefix_target[q] (when non-null).
  const auto sweep_range = [&](std::span<const i64> active, i64 s_begin,
                               i64 s_end) {
    const i64 nact = static_cast<i64>(active.size());
    // Mean-panel backends (Vecchia) drive a different panel protocol: A
    // accumulates the external conditional mean (zero-initialised by
    // allocation, no init tasks), B is unused, and the per-column-tile task
    // chain — already serialised by the probability-product handle — is the
    // only dependency, so no per-pair panel handles or update tasks exist.
    // See engine/factor_backend.hpp.
    const bool meanp = f.mean_panel_form();
    // Per-query panel width: the sweep shares the panel budget (3 matrices
    // of n rows, 8 bytes each), floored at one tile width per query and
    // rounded to a tile multiple. For a 1-element batch this reproduces the
    // single-query decomposition exactly; panelling is exact regardless
    // (sample columns are independent chains, and column-tile boundaries
    // fall at tile multiples for every panel width).
    i64 panel_cols = opts_.panel_bytes / (3 * 8 * n * nact);
    panel_cols = std::max(panel_cols, m);
    panel_cols = (panel_cols / m) * m;

    for (i64 round0 = s_begin; round0 < s_end; round0 += panel_cols) {
      const i64 pc = std::min(panel_cols, s_end - round0);

      // Column-tile map for this round: every active query contributes the
      // same sample range [round0, round0 + pc), sliced into tile-width
      // columns.
      std::vector<ColTile> tiles;
      i64 width = 0;
      for (const i64 q : active) {
        for (i64 c = 0; c < pc; c += m) {
          const i64 w = std::min(m, pc - c);
          tiles.push_back({q, round0 + c, width, w});
          width += w;
        }
      }
      const i64 nct = static_cast<i64>(tiles.size());

      // Shared wide panels: one sample-contiguous (width x tile_rows(r))
      // matrix per tile row for each of A, B, Y — the same layout the QMC
      // integrand sweeps, so the fused propagation GEMMs and the kernel
      // share one panel format (rows = samples of the whole batch, columns =
      // the tile row's dimensions). A/B/Y of one (row, column-tile) are
      // always touched together, so they share a single dependency handle.
      std::vector<la::Matrix> A, B, Y;
      A.reserve(static_cast<std::size_t>(mt));
      B.reserve(static_cast<std::size_t>(mt));
      Y.reserve(static_cast<std::size_t>(mt));
      for (i64 r = 0; r < mt; ++r) {
        const i64 mr = f.tile_rows(r);
        A.emplace_back(width, mr);
        if (!meanp) B.emplace_back(width, mr);
        Y.emplace_back(width, mr);
      }
      std::vector<std::vector<double>> prefix_acc(
          static_cast<std::size_t>(nct));
      for (i64 t = 0; t < nct; ++t)
        if (prefix_target[static_cast<std::size_t>(
                tiles[static_cast<std::size_t>(t)].query)] != nullptr)
          prefix_acc[static_cast<std::size_t>(t)].assign(
              static_cast<std::size_t>(n), 0.0);

      // Handle registration happens inside the try below so that a failure
      // in register_data itself (e.g. bad_alloc growing the runtime's handle
      // table) still reaches release_round for the handles already taken.
      // The vectors are reserved up front, so push_back never throws and
      // every registered handle is recorded.
      std::vector<rt::DataHandle> panel_handles;
      panel_handles.reserve(static_cast<std::size_t>(mt * nct));
      const auto handle = [&](i64 r, i64 t) {
        return panel_handles[static_cast<std::size_t>(r * nct + t)];
      };
      // Per-column-tile probability products (and prefix accumulators) are
      // written by every tile row's QMC task; their own handle keeps that
      // chain explicit even though the A/B/Y data flow already orders it.
      std::vector<rt::DataHandle> p_handles;
      p_handles.reserve(static_cast<std::size_t>(nct));

      // The round's panel/p handles must go back to the runtime on every
      // exit path (a long-lived serving runtime's handle table stays
      // bounded), and may only be released once the epoch has drained —
      // wait_all() drains before rethrowing a task error, and the catch
      // below drains first when a submit itself throws (e.g. handle
      // validation) with earlier tasks still in flight.
      const auto release_round = [&] {
        for (const rt::DataHandle h : panel_handles) rt_.release_data(h);
        for (const rt::DataHandle h : p_handles) rt_.release_data(h);
      };
      try {
        if (!meanp)
          for (i64 k = 0; k < mt * nct; ++k) {
            PARMVN_FAULT_POINT("engine.register");
            panel_handles.push_back(rt_.register_data());
          }
        for (i64 t = 0; t < nct; ++t) p_handles.push_back(rt_.register_data());
        // Initialise A/B with the replicated per-query limit vectors (lines
        // 2-3 of Algorithm 2), one task per (tile row, column tile).
        // Mean-panel backends skip this: their A panel starts at zero (the
        // allocation already zero-fills on the host thread) and the limits
        // reach the kernel as per-dimension spans instead.
        for (i64 r = 0; !meanp && r < mt; ++r) {
          const i64 mr = f.tile_rows(r);
          const i64 row0 = r * m;
          for (i64 t = 0; t < nct; ++t) {
            const ColTile& ct = tiles[static_cast<std::size_t>(t)];
            la::MatrixView at = A[static_cast<std::size_t>(r)].sub(
                ct.col0, 0, ct.width, mr);
            la::MatrixView bt = B[static_cast<std::size_t>(r)].sub(
                ct.col0, 0, ct.width, mr);
            const LimitSet& q = queries[static_cast<std::size_t>(ct.query)];
            const std::span<const double> qa = q.a;
            const std::span<const double> qb = q.b;
            rt_.submit("pmvn_init", {{handle(r, t), rt::Access::kWrite}},
                       [at, bt, row0, qa, qb] {
                         PARMVN_FAULT_POINT("engine.panel_init");
                         // Sample-contiguous panels: replicate each limit
                         // down its dimension's (contiguous) column.
                         for (i64 i = 0; i < at.cols; ++i) {
                           const double va =
                               qa[static_cast<std::size_t>(row0 + i)];
                           const double vb =
                               qb[static_cast<std::size_t>(row0 + i)];
                           double* __restrict ac = at.col(i);
                           double* __restrict bc = bt.col(i);
                           for (i64 j = 0; j < at.rows; ++j) {
                             ac[j] = va;
                             bc[j] = vb;
                           }
                         }
                       });
          }
        }

        // The sweep: QMC on tile row r per column tile, then one wide
        // propagation GEMM per (i, r) pair spanning the whole batch.
        for (i64 r = 0; r < mt; ++r) {
          const i64 mr = f.tile_rows(r);
          const i64 row0 = r * m;
          la::ConstMatrixView lrr = f.diag_view(r);
          for (i64 t = 0; t < nct; ++t) {
            const ColTile& ct = tiles[static_cast<std::size_t>(t)];
            la::MatrixView at = A[static_cast<std::size_t>(r)].sub(
                ct.col0, 0, ct.width, mr);
            la::MatrixView yt = Y[static_cast<std::size_t>(r)].sub(
                ct.col0, 0, ct.width, mr);
            const stats::PointSet* ps =
                &pts[static_cast<std::size_t>(ct.query)];
            double* pk =
                p[static_cast<std::size_t>(ct.query)].data() + ct.sample0;
            double* acc = prefix_acc[static_cast<std::size_t>(t)].empty()
                              ? nullptr
                              : prefix_acc[static_cast<std::size_t>(t)].data() +
                                    row0;
            const i64 sample0 = ct.sample0;
            if (meanp) {
              // Mean-panel integrand: fold the cross-tile regression
              // contributions into this row's mean tile (reading earlier Y
              // tiles of the same column tile, completed by this chain),
              // then run the Vecchia chain step. The probability-product
              // handle serialises the whole per-column-tile chain.
              const LimitSet& q = queries[static_cast<std::size_t>(ct.query)];
              const std::span<const double> qa =
                  q.a.subspan(static_cast<std::size_t>(row0),
                              static_cast<std::size_t>(mr));
              const std::span<const double> qb =
                  q.b.subspan(static_cast<std::size_t>(row0),
                              static_cast<std::size_t>(mr));
              const FactorBackend* fb = &f.backend();
              const std::vector<la::Matrix>* yall = &Y;
              const i64 col0 = ct.col0;
              const i64 cw = ct.width;
              rt_.submit("vecchia_qmc",
                         {{f.diag_handle(r), rt::Access::kRead},
                          {p_handles[static_cast<std::size_t>(t)],
                           rt::Access::kReadWrite}},
                         [fb, r, lrr, ps, row0, sample0, qa, qb, at, yt, pk,
                          acc, yall, col0, cw] {
                           fb->accumulate_external(r, *yall, col0, cw, at);
                           vecchia::vecchia_tile_kernel(lrr, *ps, row0,
                                                        sample0, qa, qb, at,
                                                        yt, pk, acc);
                         },
                         rt::kPrioSweep);
              continue;
            }
            la::ConstMatrixView bt = B[static_cast<std::size_t>(r)].sub(
                ct.col0, 0, ct.width, mr);
            la::ConstMatrixView atc = at;
            rt_.submit("qmc",
                       {{f.diag_handle(r), rt::Access::kRead},
                        {handle(r, t), rt::Access::kReadWrite},
                        {p_handles[static_cast<std::size_t>(t)],
                         rt::Access::kReadWrite}},
                       [lrr, ps, row0, sample0, atc, bt, yt, pk, acc] {
                         PARMVN_FAULT_POINT("engine.qmc");
                         core::qmc_tile_kernel(lrr, *ps, row0, sample0, atc,
                                               bt, yt, pk, acc);
                       },
                       rt::kPrioSweep);
          }
          for (i64 i = r + 1; !meanp && i < mt; ++i) {
            const i64 mi = f.tile_rows(i);
            la::ConstMatrixView yw = Y[static_cast<std::size_t>(r)].sub(
                0, 0, width, mr);
            la::MatrixView aw = A[static_cast<std::size_t>(i)].sub(0, 0, width,
                                                                   mi);
            la::MatrixView bw = B[static_cast<std::size_t>(i)].sub(0, 0, width,
                                                                   mi);
            wide_accesses.clear();
            wide_accesses.push_back({f.off_handle(i, r), rt::Access::kRead});
            for (i64 t = 0; t < nct; ++t) {
              wide_accesses.push_back({handle(r, t), rt::Access::kRead});
              wide_accesses.push_back({handle(i, t), rt::Access::kReadWrite});
            }
            const CholeskyFactor* fp = factor_.get();
            // Host-side submit failure with earlier tasks already in flight:
            // the catch below must drain them before releasing handles.
            PARMVN_FAULT_POINT("engine.submit");
            // The i == r+1 update feeds the next tile row's QMC tasks
            // directly — the sweep's critical path — so it shares the QMC
            // lane; the remaining updates trail (same weighting as the
            // factorizations, see runtime/priority.hpp).
            rt_.submit("pmvn_update", wide_accesses,
                       [fp, i, r, yw, aw, bw] {
                         fp->apply_update(i, r, yw, aw, bw);
                       },
                       i == r + 1 ? rt::kPrioSweep : rt::kPrioUpdate);
          }
        }
        rt_.wait_all();
      } catch (...) {
        // Drain whatever was already submitted (swallowing any secondary
        // task error — the original exception is what propagates), then
        // release.
        try {
          rt_.wait_all();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
        }
        release_round();
        throw;
      }

      // Fold this round's prefix sums into the per-query targets, in
      // ascending column-tile (== ascending sample) order so the
      // accumulation order is independent of the panelling.
      for (i64 t = 0; t < nct; ++t) {
        const std::vector<double>& acc =
            prefix_acc[static_cast<std::size_t>(t)];
        if (acc.empty()) continue;
        double* total = prefix_target[static_cast<std::size_t>(
            tiles[static_cast<std::size_t>(t)].query)];
        for (i64 i = 0; i < n; ++i)
          total[i] += acc[static_cast<std::size_t>(i)];
      }
      release_round();
    }
  };

  // Block estimate over the first `done` shifts of query q, pair-merged in
  // antithetic mode (pair members are dependent — see stats/qmc.hpp).
  const auto block_estimate = [&](i64 q, int done) {
    const std::vector<double>& pq = p[static_cast<std::size_t>(q)];
    std::vector<double> means(static_cast<std::size_t>(done), 0.0);
    for (i64 s = 0; s < static_cast<i64>(done) * sps; ++s)
      means[static_cast<std::size_t>(
          pts[static_cast<std::size_t>(q)].shift_of(s))] +=
          pq[static_cast<std::size_t>(s)];
    for (double& mean : means) mean /= static_cast<double>(sps);
    if (opts_.antithetic) means = stats::merge_antithetic_pairs(means);
    return stats::combine_block_means(means);
  };

  std::vector<QueryResult> results(static_cast<std::size_t>(nq));

  // A deadline routes the fixed-budget sweep through the round loop below
  // (one shift block at a time, deadline checked between rounds on the host
  // thread); without one, the fixed path stays bitwise untouched.
  const bool deadline_on = opts_.deadline_ms > 0;
  const double deadline_s = static_cast<double>(opts_.deadline_ms) / 1000.0;

  if (!opts_.adaptive && !deadline_on) {
    // Fixed budget: one sweep over the whole stream for every query — the
    // pre-adaptive code path, bitwise preserved (antithetic off).
    std::vector<i64> all(static_cast<std::size_t>(nq));
    std::iota(all.begin(), all.end(), i64{0});
    for (i64 q = 0; q < nq; ++q)
      if (queries[static_cast<std::size_t>(q)].prefix) {
        prefix_store[static_cast<std::size_t>(q)].assign(
            static_cast<std::size_t>(n), 0.0);
        prefix_target[static_cast<std::size_t>(q)] =
            prefix_store[static_cast<std::size_t>(q)].data();
      }
    sweep_range(all, 0, num_samples);

    const double batch_seconds = timer.seconds();
    for (i64 q = 0; q < nq; ++q) {
      const stats::BlockEstimate est = block_estimate(q, opts_.shifts);
      QueryResult& res = results[static_cast<std::size_t>(q)];
      res.prob = est.mean;
      res.error3sigma = est.error3sigma;
      res.seconds = batch_seconds;
      res.samples_used = num_samples;
      res.shifts_used = opts_.shifts;
      if (queries[static_cast<std::size_t>(q)].prefix) {
        res.prefix_prob = std::move(prefix_store[static_cast<std::size_t>(q)]);
        const double inv = 1.0 / static_cast<double>(num_samples);
        for (double& v : res.prefix_prob) v *= inv;
      }
    }
    return results;
  }

  // Round mode (adaptive and/or deadline-bounded): one shift block (one
  // antithetic pair) per round across the still-active queries, retiring
  // each query independently once its criterion is met — error3sigma <=
  // abs_tol, or the decision threshold cleanly cleared (adaptive only) —
  // or en masse when the deadline expires. All stop decisions run here on
  // the host thread from deterministic block sums, so the adaptive round
  // schedule (and therefore every result bit) is identical across worker
  // counts; deadline stops are time-dependent and exempt (see ROADMAP).
  const int step = opts_.antithetic ? 2 : 1;
  // First stop check no earlier than min_shifts, rounded up to whole rounds.
  const int first_check = ((opts_.min_shifts + step - 1) / step) * step;

  for (i64 q = 0; q < nq; ++q)
    if (queries[static_cast<std::size_t>(q)].prefix)
      prefix_store[static_cast<std::size_t>(q)].assign(
          static_cast<std::size_t>(n * opts_.shifts), 0.0);

  // A prefix query retires only when every prefix row meets the budget or
  // clears the decision — the confidence-region envelope is a running min
  // of these rows, so row-wise clearance implies the envelope's side cannot
  // flip with more samples inside the error model. The true prefix sequence
  // is non-increasing (each SOV factor is a probability in [0,1]), so the
  // first row whose interval lies cleanly *below* the decision decides
  // every later row at once.
  const auto prefix_decided = [&](i64 q, int done) {
    const double decision = queries[static_cast<std::size_t>(q)].decision;
    const std::vector<double>& store =
        prefix_store[static_cast<std::size_t>(q)];
    for (i64 i = 0; i < n; ++i) {
      std::vector<double> means(static_cast<std::size_t>(done), 0.0);
      for (int s = 0; s < done; ++s)
        means[static_cast<std::size_t>(s)] =
            store[static_cast<std::size_t>(static_cast<i64>(s) * n + i)] /
            static_cast<double>(sps);
      if (opts_.antithetic) means = stats::merge_antithetic_pairs(means);
      const stats::BlockEstimate est = stats::combine_block_means(means);
      if (est.mean + est.error3sigma < decision) return true;
      const bool ok =
          (opts_.abs_tol > 0.0 && est.error3sigma <= opts_.abs_tol) ||
          (est.mean - est.error3sigma > decision);
      if (!ok) return false;
    }
    return true;
  };

  std::vector<i64> active(static_cast<std::size_t>(nq));
  std::iota(active.begin(), active.end(), i64{0});
  std::vector<int> shifts_done(static_cast<std::size_t>(nq), 0);
  std::vector<char> converged(static_cast<std::size_t>(nq), 0);
  std::vector<char> deadline_hit(static_cast<std::size_t>(nq), 0);

  while (!active.empty()) {
    // All active queries have advanced in lockstep: one shared shift index.
    const int s = shifts_done[static_cast<std::size_t>(active.front())];
    // Deadline check between rounds — but only after the first round, so
    // every query retires with at least one shift block behind its estimate
    // (a deadline result is a partial answer, never an empty one).
    if (deadline_on && s > 0 && timer.seconds() + elapsed_s >= deadline_s) {
      for (const i64 qi : active)
        deadline_hit[static_cast<std::size_t>(qi)] = 1;
      break;
    }
    for (int k = 0; k < step; ++k) {
      for (const i64 qi : active)
        prefix_target[static_cast<std::size_t>(qi)] =
            queries[static_cast<std::size_t>(qi)].prefix
                ? prefix_store[static_cast<std::size_t>(qi)].data() +
                      static_cast<i64>(s + k) * n
                : nullptr;
      sweep_range(active, static_cast<i64>(s + k) * sps,
                  static_cast<i64>(s + k + 1) * sps);
    }
    std::vector<i64> still;
    still.reserve(active.size());
    for (const i64 qi : active) {
      shifts_done[static_cast<std::size_t>(qi)] += step;
      const int done = shifts_done[static_cast<std::size_t>(qi)];
      // Early-stop checks belong to adaptive mode only: a deadline-bounded
      // fixed-budget run sweeps every block the clock allows.
      if (opts_.adaptive && done >= first_check) {
        bool stop;
        if (queries[static_cast<std::size_t>(qi)].prefix) {
          stop = prefix_decided(qi, done);
        } else {
          const stats::BlockEstimate est = block_estimate(qi, done);
          stop = (opts_.abs_tol > 0.0 && est.error3sigma <= opts_.abs_tol) ||
                 clears_decision(est.mean, est.error3sigma,
                                 queries[static_cast<std::size_t>(qi)].decision);
        }
        if (stop) {
          converged[static_cast<std::size_t>(qi)] = 1;
          continue;
        }
      }
      if (done < opts_.shifts) still.push_back(qi);
    }
    active = std::move(still);
  }

  const double batch_seconds = timer.seconds();
  for (i64 q = 0; q < nq; ++q) {
    const int done = shifts_done[static_cast<std::size_t>(q)];
    const stats::BlockEstimate est = block_estimate(q, done);
    QueryResult& res = results[static_cast<std::size_t>(q)];
    res.prob = est.mean;
    res.error3sigma = est.error3sigma;
    res.seconds = batch_seconds;
    res.samples_used = static_cast<i64>(done) * sps;
    res.shifts_used = done;
    res.converged = converged[static_cast<std::size_t>(q)] != 0;
    res.method = deadline_hit[static_cast<std::size_t>(q)] != 0
                     ? EvalMethod::kDeadline
                     : EvalMethod::kQmc;
    if (queries[static_cast<std::size_t>(q)].prefix) {
      // Fold per-shift prefix sums in ascending shift order, then normalise
      // by the samples this query actually evaluated.
      res.prefix_prob.assign(static_cast<std::size_t>(n), 0.0);
      const std::vector<double>& store =
          prefix_store[static_cast<std::size_t>(q)];
      for (int sft = 0; sft < done; ++sft)
        for (i64 i = 0; i < n; ++i)
          res.prefix_prob[static_cast<std::size_t>(i)] +=
              store[static_cast<std::size_t>(static_cast<i64>(sft) * n + i)];
      const double inv = 1.0 / static_cast<double>(res.samples_used);
      for (double& v : res.prefix_prob) v *= inv;
    }
  }
  return results;
}

}  // namespace parmvn::engine
