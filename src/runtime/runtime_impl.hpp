// Internal interface between the Runtime facade and its implementations.
// Not installed / not part of the public surface — runtime.cpp and
// scheduler_global.cpp are the only includers.
//
// Two implementations exist:
//   * make_inline_impl  — 0 workers: tasks execute inside submit().
//   * make_global_impl  — the worker pool: one priority-ordered ready queue
//                         under a single lock (scheduler_global.cpp).
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/runtime.hpp"

namespace parmvn::rt {

struct Runtime::Impl {
  Impl(u64 uid_arg, bool tracing_arg) : uid(uid_arg), tracing(tracing_arg) {}
  virtual ~Impl() = default;

  virtual DataHandle register_handle(std::string debug_name) = 0;
  virtual void release_handle(DataHandle handle) = 0;
  virtual void submit(std::string_view name,
                      std::span<const DataAccess> accesses,
                      std::function<void()> fn, int priority) = 0;
  virtual void wait_all() = 0;

  /// External cancel token: make every not-yet-started task of the current
  /// epoch a no-op, exactly as the first-error plumbing does, but without
  /// recording an error — wait_all() returns normally (after the no-op
  /// drain) and clears the flag. Callable from any thread.
  virtual void cancel() = 0;
  [[nodiscard]] virtual bool cancel_requested() const noexcept = 0;

  /// Destructor support: wait for in-flight tasks to drain, then hand back
  /// (without clearing epoch state) any pending never-retrieved task error
  /// so the facade can surface it on stderr. Must not throw.
  virtual std::exception_ptr drain_pending_error() noexcept = 0;

  [[nodiscard]] virtual int num_threads() const noexcept = 0;
  [[nodiscard]] virtual const std::vector<TaskRecord>& trace() const = 0;

  /// One mid-run trace failure (ENOMEM appending a record) downgrades
  /// tracing to off for the rest of the runtime's life instead of
  /// propagating an error out of a worker loop; see trace_record_failed().
  [[nodiscard]] bool trace_enabled() const noexcept {
    return tracing && trace_ok.load(std::memory_order_relaxed);
  }
  void trace_record_failed() noexcept;

  const u64 uid;
  const bool tracing;
  /// Backs Runtime::exclusive_epoch(): host threads sharing one runtime
  /// serialise their submit…wait_all phases on this mutex (the scheduler
  /// itself never touches it — it only orders *host-side* epochs).
  std::mutex epoch_mu;
  std::atomic<i64> executed{0};
  /// Handle slots a HandleLease::release() had to abandon because they were
  /// not quiescent (see Runtime::handles_leaked()).
  std::atomic<i64> handles_leaked{0};
  std::atomic<bool> trace_ok{true};
};

std::unique_ptr<Runtime::Impl> make_inline_impl(u64 uid, bool tracing);
std::unique_ptr<Runtime::Impl> make_global_impl(u64 uid, int threads,
                                                bool tracing);

}  // namespace parmvn::rt
