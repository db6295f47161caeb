#include "dist/schedules.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace parmvn::dist {

BlockCyclic BlockCyclic::square(i64 nodes) {
  PARMVN_EXPECTS(nodes >= 1);
  BlockCyclic g;
  for (i64 p = 1; p * p <= nodes; ++p)
    if (nodes % p == 0) g.p = p;
  g.q = nodes / g.p;
  return g;
}

i64 RankProfile::rank(i64 distance) const noexcept {
  const i64 d = std::max<i64>(distance, 1);
  double r = near_rank * std::pow(decay, static_cast<double>(d - 1));
  r = std::round(r);
  i64 out = static_cast<i64>(r);
  out = std::max(out, floor_rank);
  if (cap > 0) out = std::min(out, cap);
  return out;
}

RankProfile RankProfile::fit(const tlr::TlrMatrix& m) {
  const i64 nt = m.num_tiles();
  PARMVN_EXPECTS(nt >= 2);

  // Mean rank per tile distance.
  std::vector<double> mean_rank;
  i64 max_rank = 1;
  for (i64 d = 1; d < nt; ++d) {
    double sum = 0.0;
    i64 count = 0;
    for (i64 i = d; i < nt; ++i) {
      const i64 r = m.lr(i, i - d).rank();
      sum += static_cast<double>(r);
      max_rank = std::max(max_rank, r);
      ++count;
    }
    mean_rank.push_back(sum / static_cast<double>(count));
  }

  // Least squares of log(mean rank) on (d - 1) over the informative head of
  // the curve (distant tiles sit at the floor and would flatten the fit).
  const std::size_t use =
      std::min<std::size_t>(mean_rank.size(), 8);
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t pts = 0;
  for (std::size_t k = 0; k < use; ++k) {
    if (mean_rank[k] < 1.0) continue;
    const double x = static_cast<double>(k);
    const double y = std::log(mean_rank[k]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++pts;
  }

  RankProfile out;
  out.cap = max_rank;
  if (pts < 2) {
    out.near_rank = std::max(mean_rank.empty() ? 1.0 : mean_rank[0], 1.0);
    out.decay = 1.0;
    return out;
  }
  const double n = static_cast<double>(pts);
  const double denom = n * sxx - sx * sx;
  const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / n;
  out.near_rank = std::max(std::exp(intercept), 1.0);
  out.decay = std::clamp(std::exp(slope), 1e-3, 1.0);
  return out;
}

namespace {

// Last task to write each tile, keyed by i * nt + j; -1 = untouched input.
class WriterMap {
 public:
  WriterMap(i64 nt) : nt_(nt), map_(static_cast<std::size_t>(nt * nt), -1) {}

  [[nodiscard]] i64 get(i64 i, i64 j) const {
    return map_[static_cast<std::size_t>(i * nt_ + j)];
  }
  void set(i64 i, i64 j, i64 task) {
    map_[static_cast<std::size_t>(i * nt_ + j)] = task;
  }

 private:
  i64 nt_;
  std::vector<i64> map_;
};

void add_dep(SimTask& t, i64 dep) {
  if (dep >= 0) t.deps.push_back(dep);
}

// Shared skeleton for the dense and TLR factorizations; the lambdas price
// the four kernels and the tile payloads.
template <class PotrfCost, class TrsmCost, class SyrkCost, class GemmCost,
          class LrBytes>
std::vector<SimTask> cholesky_dag(i64 nt, BlockCyclic grid, i64 diag_bytes,
                                  PotrfCost potrf_cost, TrsmCost trsm_cost,
                                  SyrkCost syrk_cost, GemmCost gemm_cost,
                                  LrBytes lr_bytes) {
  PARMVN_EXPECTS(nt >= 1);
  std::vector<SimTask> tasks;
  WriterMap writer(nt);

  for (i64 k = 0; k < nt; ++k) {
    SimTask potrf;
    potrf.cost_s = potrf_cost(k);
    potrf.owner = grid.owner(k, k);
    potrf.output_bytes = diag_bytes;
    add_dep(potrf, writer.get(k, k));
    writer.set(k, k, static_cast<i64>(tasks.size()));
    tasks.push_back(std::move(potrf));

    for (i64 i = k + 1; i < nt; ++i) {
      SimTask trsm;
      trsm.cost_s = trsm_cost(i, k);
      trsm.owner = grid.owner(i, k);
      trsm.output_bytes = lr_bytes(i, k);
      add_dep(trsm, writer.get(k, k));
      add_dep(trsm, writer.get(i, k));
      writer.set(i, k, static_cast<i64>(tasks.size()));
      tasks.push_back(std::move(trsm));
    }

    for (i64 i = k + 1; i < nt; ++i) {
      SimTask syrk;
      syrk.cost_s = syrk_cost(i, k);
      syrk.owner = grid.owner(i, i);
      syrk.output_bytes = diag_bytes;
      add_dep(syrk, writer.get(i, k));
      add_dep(syrk, writer.get(i, i));
      writer.set(i, i, static_cast<i64>(tasks.size()));
      tasks.push_back(std::move(syrk));

      for (i64 j = k + 1; j < i; ++j) {
        SimTask gemm;
        gemm.cost_s = gemm_cost(i, j, k);
        gemm.owner = grid.owner(i, j);
        gemm.output_bytes = lr_bytes(i, j);
        add_dep(gemm, writer.get(i, k));
        add_dep(gemm, writer.get(j, k));
        add_dep(gemm, writer.get(i, j));
        writer.set(i, j, static_cast<i64>(tasks.size()));
        tasks.push_back(std::move(gemm));
      }
    }
  }
  return tasks;
}

}  // namespace

std::vector<SimTask> cholesky_dag_dense(i64 nt, i64 tile, BlockCyclic grid,
                                        const MachineModel& m) {
  const i64 tile_bytes = tile * tile * 8;
  return cholesky_dag(
      nt, grid, tile_bytes, [&](i64) { return cost_potrf(m, tile); },
      [&](i64, i64) { return cost_trsm(m, tile); },
      [&](i64, i64) { return cost_syrk(m, tile); },
      [&](i64, i64, i64) { return cost_gemm(m, tile); },
      [&](i64, i64) { return tile_bytes; });
}

std::vector<SimTask> cholesky_dag_tlr(i64 nt, i64 tile,
                                      const RankProfile& ranks,
                                      BlockCyclic grid, const MachineModel& m) {
  return cholesky_dag(
      nt, grid, tile * tile * 8,
      [&](i64) { return cost_potrf(m, tile); },
      [&](i64 i, i64 k) { return cost_tlr_trsm(m, tile, ranks.rank(i - k)); },
      [&](i64 i, i64 k) { return cost_tlr_syrk(m, tile, ranks.rank(i - k)); },
      [&](i64 i, i64 j, i64 k) {
        return cost_tlr_gemm(m, tile, ranks.rank(i - k), ranks.rank(j - k),
                             ranks.rank(i - j));
      },
      [&](i64 i, i64 j) { return 2 * tile * ranks.rank(i - j) * 8; });
}

PmvnDag pmvn_dag(i64 nt, i64 tile, i64 nc, bool tlr, const RankProfile& ranks,
                 BlockCyclic grid, const MachineModel& m, i64 samples_per_panel,
                 bool tlr_sweep) {
  PARMVN_EXPECTS(nc >= 1);
  PARMVN_EXPECTS(samples_per_panel >= 1);

  PmvnDag dag;
  dag.tasks = tlr ? cholesky_dag_tlr(nt, tile, ranks, grid, m)
                  : cholesky_dag_dense(nt, tile, grid, m);
  dag.chol_task_count = static_cast<i64>(dag.tasks.size());

  // Final writer of factor tile (i, k): trsm for i > k, potrf for i == k.
  // Reconstructed from the deterministic emission order of cholesky_dag.
  WriterMap factor(nt);
  {
    i64 id = 0;
    for (i64 k = 0; k < nt; ++k) {
      factor.set(k, k, id++);            // potrf
      for (i64 i = k + 1; i < nt; ++i) factor.set(i, k, id++);  // trsm
      id += (nt - 1 - k) * (nt - k) / 2; // syrk + gemm block of step k
    }
    PARMVN_ASSERT(id == dag.chol_task_count);
  }

  const i64 nodes = grid.p * grid.q;
  const i64 panel_bytes = tile * samples_per_panel * 8;

  // Sample panels are independent MC chains; panel c is pinned to node
  // c mod nodes (sample parallelism, as in the paper's distributed runs).
  for (i64 c = 0; c < nc; ++c) {
    const i64 node = c % nodes;
    std::vector<i64> row_writer(static_cast<std::size_t>(nt), -1);
    for (i64 k = 0; k < nt; ++k) {
      SimTask qmc;
      qmc.cost_s = cost_pmvn_qmc(m, tile, samples_per_panel);
      qmc.owner = node;
      qmc.output_bytes = panel_bytes;
      add_dep(qmc, factor.get(k, k));
      add_dep(qmc, row_writer[static_cast<std::size_t>(k)]);
      const i64 qmc_id = static_cast<i64>(dag.tasks.size());
      row_writer[static_cast<std::size_t>(k)] = qmc_id;
      dag.tasks.push_back(std::move(qmc));

      for (i64 i = k + 1; i < nt; ++i) {
        SimTask upd;
        upd.cost_s = tlr_sweep ? cost_pmvn_update_tlr(m, tile,
                                                      samples_per_panel,
                                                      ranks.rank(i - k))
                               : cost_pmvn_update_dense(m, tile,
                                                        samples_per_panel);
        upd.owner = node;
        upd.output_bytes = panel_bytes;
        add_dep(upd, qmc_id);
        add_dep(upd, factor.get(i, k));
        add_dep(upd, row_writer[static_cast<std::size_t>(i)]);
        row_writer[static_cast<std::size_t>(i)] =
            static_cast<i64>(dag.tasks.size());
        dag.tasks.push_back(std::move(upd));
      }
    }
  }
  return dag;
}

}  // namespace parmvn::dist
