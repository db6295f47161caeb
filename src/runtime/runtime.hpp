// Task-based runtime with data-driven dependency inference — the library's
// StarPU substitute.
//
// Usage mirrors StarPU's sequential-consistency model:
//
//   rt::Runtime rt(8);
//   auto hA = rt.register_data("A00");
//   auto hB = rt.register_data("B00");
//   rt.submit("potrf", {{hA, rt::Access::kReadWrite}}, [&]{ ... });
//   rt.submit("trsm",  {{hA, rt::Access::kRead}, {hB, rt::Access::kReadWrite}},
//             [&]{ ... });
//   rt.wait_all();
//
// Tasks behave *as if* executed in submission order with respect to every
// data handle (RAW, WAR and WAW hazards ordered); independent tasks run
// concurrently on the worker pool. Priorities (see runtime/priority.hpp for
// the named ladder) steer which ready task runs first.
//
// Scheduling: one ready queue ordered by priority, FIFO (submission order)
// within equal priority, under a single runtime-wide lock that also guards
// the handle table and the task graph (runtime/scheduler_global.cpp).
// Scheduling never reorders any data dependency, so results are bitwise
// deterministic across worker counts.
//
// Thread-safety (threaded mode): submit(), register_data() and
// release_data() may be called from any thread, concurrently. wait_all()
// must not race with submit() on the same runtime (an epoch boundary
// concurrent with submission has no meaningful semantics); host threads
// that share a Runtime serialise their submit…wait_all phases through
// exclusive_epoch() — the engine's factor/evaluate entry points do so
// automatically, so concurrent engine-level callers need no external
// fencing. Inline mode (0 workers) is single-threaded by construction:
// tasks run inside submit() on the calling thread, and all calls must come
// from one thread at a time.
//
// Error model: the first exception thrown by a task cancels all
// not-yet-started tasks; wait_all() rethrows it.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "runtime/access.hpp"
#include "runtime/trace.hpp"

namespace parmvn::rt {

class Runtime {
 public:
  /// @param num_threads worker threads; 0 = inline mode (tasks execute
  ///        immediately on submit — submission order is always a valid
  ///        topological order under sequential consistency).
  /// @param enable_trace record per-task timing (see trace()).
  explicit Runtime(int num_threads, bool enable_trace = false);
  Runtime();  // default_num_threads() workers

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Drains remaining work (ignoring task errors) and joins workers.
  ~Runtime();

  /// Register a unit of data for dependency tracking.
  [[nodiscard]] DataHandle register_data(std::string debug_name = {});

  /// Return a handle's slot to the runtime for reuse by a future
  /// register_data(). Callers that register transient per-round data (e.g.
  /// the engine's sample panels) must release it, or a long-lived runtime's
  /// handle table grows without bound. Only legal when no in-flight task
  /// references the handle (wait_all() first); the handle value is recycled,
  /// so any further use of it is a bug.
  void release_data(DataHandle handle);

  /// Submit a task. `accesses` lists every handle the task touches; it is
  /// consumed during the call (never stored), so fine-grained graphs pay no
  /// per-task access-list copy. The name is only materialised when tracing
  /// is enabled. `priority` follows the ladder in runtime/priority.hpp
  /// (any int is legal; higher runs earlier).
  void submit(std::string_view name, std::span<const DataAccess> accesses,
              std::function<void()> fn, int priority = 0);
  void submit(std::string_view name,
              std::initializer_list<DataAccess> accesses,
              std::function<void()> fn, int priority = 0) {
    submit(name, std::span<const DataAccess>(accesses.begin(), accesses.size()),
           std::move(fn), priority);
  }

  /// Block until all submitted tasks completed; rethrows the first task
  /// exception if any. Afterwards the runtime is reusable.
  void wait_all();

  /// Serialise a whole submit…wait_all phase against other host threads
  /// sharing this runtime: hold the returned lock for the duration of the
  /// phase and concurrent phases queue up instead of racing submit()
  /// against wait_all() (which has no meaningful semantics — see the
  /// thread-safety note above). The engine's epoch-shaped entry points
  /// (CholeskyFactor::factor*, PmvnEngine::evaluate) take this lock
  /// themselves, so concurrent detect_confidence_regions callers — and the
  /// serving layer — can share one Runtime + FactorCache without external
  /// fencing; raw submit()/wait_all() callers must still take it (or fence
  /// some other way) when they share a runtime across threads.
  [[nodiscard]] std::unique_lock<std::mutex> exclusive_epoch() const;

  /// Cooperatively cancel the current epoch from any thread: every
  /// not-yet-started task becomes a no-op (exactly the first-error
  /// cancellation plumbing — tasks already running finish normally), so a
  /// pending wait_all() returns promptly instead of draining the remaining
  /// work. Unlike a task error, cancellation is not itself reported:
  /// wait_all() returns normally (still rethrowing a task error if one
  /// happened first) and clears the flag, leaving the runtime reusable.
  /// Tasks that want to stop mid-body can poll cancel_requested().
  void cancel();

  /// Whether the current epoch is cancelling — set by cancel() or by the
  /// first task error; cleared at the wait_all() epoch boundary.
  [[nodiscard]] bool cancel_requested() const noexcept;

  [[nodiscard]] int num_threads() const noexcept;

  /// Process-unique id of this runtime instance (monotonic, never reused).
  /// Data handles are only meaningful within the runtime that registered
  /// them; caches that hold handle-bearing objects across calls key on this
  /// id — unlike the object address, it cannot alias a destroyed runtime.
  [[nodiscard]] u64 uid() const noexcept;

  /// Whether the runtime with this uid is still alive. Lets caches purge
  /// entries bound to destroyed runtimes (their handles can never be used
  /// again, so such entries only pin memory).
  [[nodiscard]] static bool uid_alive(u64 uid);

  /// Total tasks executed since construction.
  [[nodiscard]] i64 tasks_executed() const noexcept;

  /// Always 0: the single ready queue places no task on a particular
  /// worker, so none is ever stolen. Kept because the pipeline benchmark
  /// (perfbench/) reads it to report runtime.steal_frac.
  [[nodiscard]] i64 tasks_stolen() const noexcept;

  /// Handle slots this runtime could not reclaim because a
  /// HandleLease::release() found them non-quiescent (an in-flight task
  /// still referenced them — a caller bug; the lease skips the slot rather
  /// than throw from a destructor). A healthy program keeps this at zero;
  /// the destructor warns on stderr otherwise.
  [[nodiscard]] i64 handles_leaked() const noexcept;

  /// Process-wide sum of handles_leaked() over every runtime ever
  /// constructed — lets test suites assert zero leaks at the end without
  /// keeping each runtime alive.
  [[nodiscard]] static i64 total_handles_leaked() noexcept;

  /// Timing records (only populated when enable_trace was set); stable to
  /// read after wait_all().
  [[nodiscard]] const std::vector<TaskRecord>& trace() const;

  /// Internal scheduler interface (see runtime/runtime_impl.hpp); publicly
  /// *named* so the implementation translation units can derive from it, but
  /// defined only in the internal header.
  struct Impl;

 private:
  friend class HandleLease;
  std::unique_ptr<Impl> impl_;
};

/// Move-only RAII lease over a set of data handles, safe under shared
/// ownership that may outlive the runtime: the lease records the owning
/// runtime's uid at construction and, on destruction (or release()), hands
/// every held handle back *only if* that runtime is still alive — resolved
/// through the same registry that backs Runtime::uid_alive(), under its
/// lock, so the release can never race with the runtime's destruction.
/// This is what lets long-lived handle-bearing objects (factor tiles held
/// by a FactorCache, shared across shared_ptr owners) return their handle
/// slots instead of pinning them forever.
///
/// Handles acquired through the lease are normal handles: use them in
/// submit() as usual, but do not release_data() them manually, and only let
/// the lease die when the handles are quiescent (no in-flight task
/// references, i.e. after a wait_all() epoch boundary — the natural state
/// for anything whose tasks have completed).
class HandleLease {
 public:
  HandleLease() = default;
  explicit HandleLease(const Runtime& rt) : uid_(rt.uid()) {}
  HandleLease(HandleLease&& other) noexcept
      : uid_(other.uid_), handles_(std::move(other.handles_)) {
    other.handles_.clear();
  }
  HandleLease& operator=(HandleLease&& other) noexcept {
    if (this != &other) {
      release();
      uid_ = other.uid_;
      handles_ = std::move(other.handles_);
      other.handles_.clear();
    }
    return *this;
  }
  HandleLease(const HandleLease&) = delete;
  HandleLease& operator=(const HandleLease&) = delete;
  ~HandleLease() { release(); }

  /// Register a handle with `rt` (which must be the runtime the lease was
  /// bound to) and record it for release.
  [[nodiscard]] DataHandle acquire(Runtime& rt, std::string debug_name = {});

  /// Return every held handle to the owning runtime if it is still alive;
  /// idempotent, never throws (a handle that is not quiescent is skipped —
  /// leaking one slot beats crashing a destructor — and the owning runtime
  /// counts it in Runtime::handles_leaked()).
  void release() noexcept;

  [[nodiscard]] u64 runtime_uid() const noexcept { return uid_; }
  [[nodiscard]] std::size_t size() const noexcept { return handles_.size(); }

 private:
  u64 uid_ = 0;
  std::vector<DataHandle> handles_;
};

}  // namespace parmvn::rt
