// Named priority ladder for Runtime::submit.
//
// `Runtime::submit(..., int priority)` was historically a bare tie-break
// int with no documented scale; these constants define the scale and how
// the scheduler interprets it.
//
// The ladder (higher runs earlier):
//
//   kPrioPanel  (3)  panel factorization and the tasks that feed the *next*
//                    panel directly — the critical path of a tiled/TLR
//                    Cholesky (POTRF, the first sub-diagonal TRSM, the SYRK
//                    into the next diagonal tile).
//   kPrioSweep  (2)  panel-release work: the remaining TRSMs of the current
//                    panel, and the QMC integrand tasks of the PMVN sweep.
//   kPrioUpdate (1)  trailing updates that feed the next panel's TRSMs
//                    (GEMMs into column k+1).
//   kPrioBulk   (0)  everything else: far trailing updates, panel
//                    initialisation, default for unannotated tasks.
//
// Scheduler interaction:
//
//  * The scheduler orders its single ready queue by the raw int (any int is
//    legal), FIFO within equal priority. Because panel k's tasks are always
//    submitted before panel k+1's, FIFO within a level prefers the critical
//    path without a per-task depth integer.
//  * Priorities are scheduling hints only; correctness (sequential
//    consistency per data handle, bitwise determinism across worker
//    counts) comes solely from the declared data accesses.
#pragma once

namespace parmvn::rt {

inline constexpr int kPrioBulk = 0;
inline constexpr int kPrioUpdate = 1;
inline constexpr int kPrioSweep = 2;
inline constexpr int kPrioPanel = 3;

}  // namespace parmvn::rt
