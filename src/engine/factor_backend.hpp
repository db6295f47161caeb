// Polymorphic factor backend — the seam between "factor once" and
// "evaluate many".
//
// The PMVN sweep consumes a factor through a small, fixed vocabulary:
// tile geometry, a readable diagonal tile, runtime handles for dependency
// tracking, and a propagation rule that folds tile row r's conditioning
// values into the panels of a later tile row i. FactorBackend names that
// vocabulary so CholeskyFactor (the owning facade the caching/serving
// layers hold) and PmvnEngine (the task-graph builder) never branch on a
// concrete format. Dense-tiled and TLR factors are thin adapters
// (dense_backend.hpp / tlr_backend.hpp); the Vecchia sparse
// inverse-Cholesky arm (vecchia/vecchia_backend.hpp) is the third.
//
// Two sweep protocols, selected by mean_panel_form():
//
//  * Reduced-limit form (dense, TLR — mean_panel_form() == false): the A/B
//    panels carry the *transformed integration limits*, initialised to the
//    query limits and reduced in place by apply_update()'s wide GEMMs
//    (A -= Y L_ir^T). Every (i, r) tile pair carries an off-diagonal block,
//    named by off_handle() for dependency tracking.
//
//  * Mean form (Vecchia — mean_panel_form() == true): conditioning sets are
//    sparse, so per-pair GEMM tasks would drown in task/handle overhead.
//    Instead the A panel accumulates the *external conditional mean*
//    (initialised to zero by allocation) and the kernel standardises the
//    original query limits against it row by row. All external
//    contributions into tile row r are applied by accumulate_external()
//    at the head of row r's integrand task — a deterministic sequence of
//    unit-stride axpys — so the per-column-tile chain (already serialised
//    by the engine's probability-product handle) is the only dependency
//    needed and no per-pair handles or tasks exist at all. The B panel is
//    unused and never allocated.
//
// Both protocols keep the determinism contracts: every per-sample row of a
// panel is computed by arithmetic whose reduction order depends only on the
// dimension index, never on the panel width or task interleaving, so fused
// batches stay bitwise equal to single-query runs and results are identical
// across worker counts *within* a factor kind.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/matrix.hpp"
#include "runtime/runtime.hpp"

namespace parmvn::engine {

enum class FactorKind { kDense, kTlr, kVecchia };

class FactorBackend {
 public:
  virtual ~FactorBackend() = default;

  [[nodiscard]] virtual FactorKind kind() const noexcept = 0;
  [[nodiscard]] virtual i64 dim() const noexcept = 0;
  [[nodiscard]] virtual i64 tile_size() const noexcept = 0;
  [[nodiscard]] virtual i64 row_tiles() const noexcept = 0;
  [[nodiscard]] virtual i64 tile_rows(i64 r) const noexcept = 0;

  /// Lower-triangular diagonal tile of tile row r. Reduced-limit backends
  /// return the Cholesky diagonal tile L_rr; mean-form backends return the
  /// local conditioning tile D_rr (unit structure: D(i,i) = conditional sd,
  /// D(i,k) = regression weight on in-tile neighbour k < i).
  [[nodiscard]] virtual la::ConstMatrixView diag_view(i64 r) const = 0;
  [[nodiscard]] virtual rt::DataHandle diag_handle(i64 r) const = 0;

  // ---- reduced-limit protocol (mean_panel_form() == false) ----

  /// Handle naming the (i, r) off-diagonal block, i > r.
  [[nodiscard]] virtual rt::DataHandle off_handle(i64 i, i64 r) const {
    PARMVN_ASSERT(!"off_handle: backend has no off-diagonal blocks");
    return rt::DataHandle{};
  }

  /// A -= Y * L_ir^T, B -= Y * L_ir^T over (possibly wide, multi-query)
  /// sample-contiguous panels (rows = samples, columns = dimensions).
  virtual void apply_update(i64 i, i64 r, la::ConstMatrixView y,
                            la::MatrixView a, la::MatrixView b) const {
    (void)i;
    (void)r;
    (void)y;
    (void)a;
    (void)b;
    PARMVN_ASSERT(!"apply_update: backend uses the mean-panel protocol");
  }

  // ---- mean-panel protocol (mean_panel_form() == true) ----

  [[nodiscard]] virtual bool mean_panel_form() const noexcept { return false; }

  /// Fold every external (earlier-tile) regression contribution into tile
  /// row r's mean panel: mean(:, c) += w * Y[src_tile](:, src_col) for each
  /// sparse weight, over panel rows [row_off, row_off + nrows). Applied in
  /// a fixed order (ascending target column, then ascending global
  /// neighbour), so the arithmetic is deterministic and — being a
  /// per-sample-row independent axpy sequence — width-independent.
  /// `y_panels` is the engine's per-tile-row conditioning panel array; only
  /// rows r' < r are read, which the caller's task chain has completed.
  virtual void accumulate_external(i64 r, std::span<const la::Matrix> y_panels,
                                   i64 row_off, i64 nrows,
                                   la::MatrixView mean_tile) const {
    (void)r;
    (void)y_panels;
    (void)row_off;
    (void)nrows;
    (void)mean_tile;
    PARMVN_ASSERT(!"accumulate_external: backend uses reduced-limit panels");
  }

  // ---- EP screening-row protocol (ep/ep_screen.hpp) ----
  //
  // Every arm expresses ordered coordinate k generatively as
  //   x_k = sum_j coef_j * s_j + d_k * z_k,   z_k ~ N(0, 1),
  // over parent slots s_j with j < k. Two slot spaces:
  //  * latent (dense, TLR — ep_latent_slots() == true): the slots are the
  //    Cholesky innovations z_j, coefficients are row k of L, d_k = L_kk;
  //  * observed (Vecchia — false): the slots are earlier coordinates x_j,
  //    coefficients are the conditioning-set regression weights, d_k the
  //    conditional sd, and z_k is private noise with no slot of its own.

  [[nodiscard]] virtual bool ep_latent_slots() const noexcept { return true; }

  /// Fill `parents` (cleared first) with row k's (slot, coefficient) pairs
  /// in ascending slot order — a fixed order, so the EP screen's reductions
  /// are deterministic — and return the innovation sd d_k. TLR backends
  /// materialise the row from U V^T on the fly; callers that sweep rows
  /// repeatedly should flatten once (the screen builds a CSR copy).
  virtual double ep_row(i64 k,
                        std::vector<std::pair<i64, double>>& parents) const = 0;
};

}  // namespace parmvn::engine
