// Runtime facade: uid registry, the choice between inline and threaded
// mode, and the inline (0-worker) implementation. The threaded scheduler
// lives in scheduler_global.cpp.
#include "runtime/runtime.hpp"

#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "runtime/runtime_impl.hpp"

namespace parmvn::rt {

namespace {

// Registry of live runtimes keyed by uid, so uid_alive() can answer for
// caches that hold handle-bearing objects across runtime lifetimes, and so
// HandleLease::release() can hand handles back through a uid without ever
// dereferencing a destroyed runtime: ~Runtime erases its entry under the
// same mutex *before* its Impl is destroyed, and the runtime internals
// never take this mutex, so holding it across release_handle() is safe.
std::mutex& uid_registry_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<u64, Runtime::Impl*>& uid_registry() {
  static std::unordered_map<u64, Runtime::Impl*> s;
  return s;
}

std::atomic<u64> next_uid{1};

// Process-wide leak tally (see Runtime::total_handles_leaked()): bumped in
// the same uid-registry critical section that skips a non-quiescent slot,
// so it survives the leaking runtime's destruction.
std::atomic<i64> total_leaked{0};

// Inline mode: tasks execute immediately on submit — submission order is
// always a valid topological order under sequential consistency, so no
// hazard tracking is needed, only handle-table bookkeeping. Single-threaded
// by contract (see runtime.hpp): with tasks running inside submit() on the
// calling thread, concurrent submitters would interleave task bodies
// anyway, so no synchronization is provided here.
class InlineImpl final : public Runtime::Impl {
 public:
  InlineImpl(u64 uid_arg, bool trace_on) : Impl(uid_arg, trace_on) {}

  DataHandle register_handle(std::string debug_name) override {
    i64 id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
    } else {
      id = static_cast<i64>(in_use_.size());
      in_use_.push_back(false);
    }
    in_use_[static_cast<std::size_t>(id)] = true;
    (void)debug_name;  // inline mode never traces hazards
    return detail::HandleMint::make(id);
  }

  void release_handle(DataHandle handle) override {
    PARMVN_EXPECTS(handle.valid());
    PARMVN_EXPECTS(handle.id() < static_cast<i64>(in_use_.size()));
    PARMVN_EXPECTS(in_use_[static_cast<std::size_t>(handle.id())]);
    in_use_[static_cast<std::size_t>(handle.id())] = false;
    free_ids_.push_back(handle.id());
  }

  void submit(std::string_view /*name*/, std::span<const DataAccess> accesses,
              std::function<void()> fn, int /*priority*/) override {
    for (const DataAccess& acc : accesses) {
      PARMVN_EXPECTS(acc.handle.valid());
      PARMVN_EXPECTS(acc.handle.id() < static_cast<i64>(in_use_.size()));
      PARMVN_EXPECTS(in_use_[static_cast<std::size_t>(acc.handle.id())]);
    }
    if (!first_error_ && !cancelled_) {
      try {
        fn();
      } catch (...) {
        first_error_ = std::current_exception();
      }
    }
    executed.fetch_add(1, std::memory_order_relaxed);
  }

  void wait_all() override {
    cancelled_ = false;
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  // Inline mode runs tasks inside submit(), so cancel() from the submitting
  // thread simply turns the remaining submissions into no-ops; cancel()
  // from another thread has no stronger meaning in a single-threaded
  // runtime (see the thread-safety note in runtime.hpp).
  void cancel() override { cancelled_ = true; }
  [[nodiscard]] bool cancel_requested() const noexcept override {
    return cancelled_ || first_error_ != nullptr;
  }

  std::exception_ptr drain_pending_error() noexcept override {
    return first_error_;
  }

  [[nodiscard]] int num_threads() const noexcept override { return 0; }

  [[nodiscard]] const std::vector<TaskRecord>& trace() const override {
    return records_;
  }

 private:
  std::vector<bool> in_use_;
  std::vector<i64> free_ids_;
  std::exception_ptr first_error_;
  bool cancelled_ = false;
  std::vector<TaskRecord> records_;  // inline mode records nothing
};

}  // namespace

Runtime::Runtime(int num_threads, bool enable_trace) {
  PARMVN_EXPECTS(num_threads >= 0);
  const u64 uid = next_uid.fetch_add(1);
  impl_ = num_threads == 0 ? make_inline_impl(uid, enable_trace)
                           : make_global_impl(uid, num_threads, enable_trace);
  // Register only after construction succeeded: a throwing impl constructor
  // must not leave a dead uid marked alive.
  std::unique_lock registry_lock(uid_registry_mutex());
  uid_registry().emplace(uid, impl_.get());
}

Runtime::Runtime() : Runtime(default_num_threads(), false) {}

Runtime::~Runtime() {
  if (!impl_) return;
  const std::exception_ptr pending = impl_->drain_pending_error();
  // A destructor cannot throw, but an epoch error the caller never
  // wait_all()'d for must not vanish silently either: surface it on stderr.
  if (pending) {
    try {
      std::rethrow_exception(pending);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "[parmvn::rt] Runtime destroyed with an unretrieved task "
                   "error (no wait_all() after the failing submit): %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "[parmvn::rt] Runtime destroyed with an unretrieved "
                   "non-std task exception (no wait_all() after the failing "
                   "submit)\n");
    }
  }
  const i64 leaked = impl_->handles_leaked.load(std::memory_order_relaxed);
  if (leaked > 0) {
    std::fprintf(stderr,
                 "[parmvn::rt] Runtime destroyed with %lld leaked handle "
                 "slot(s) (HandleLease released while tasks were in "
                 "flight)\n",
                 static_cast<long long>(leaked));
  }
  {
    std::unique_lock registry_lock(uid_registry_mutex());
    uid_registry().erase(impl_->uid);
  }
}

DataHandle Runtime::register_data(std::string debug_name) {
  return impl_->register_handle(std::move(debug_name));
}

void Runtime::release_data(DataHandle handle) {
  impl_->release_handle(handle);
}

void Runtime::submit(std::string_view name,
                     std::span<const DataAccess> accesses,
                     std::function<void()> fn, int priority) {
  impl_->submit(name, accesses, std::move(fn), priority);
}

void Runtime::wait_all() { impl_->wait_all(); }

std::unique_lock<std::mutex> Runtime::exclusive_epoch() const {
  return std::unique_lock<std::mutex>(impl_->epoch_mu);
}

void Runtime::cancel() { impl_->cancel(); }

bool Runtime::cancel_requested() const noexcept {
  return impl_->cancel_requested();
}

int Runtime::num_threads() const noexcept { return impl_->num_threads(); }

u64 Runtime::uid() const noexcept { return impl_->uid; }

bool Runtime::uid_alive(u64 uid) {
  std::unique_lock registry_lock(uid_registry_mutex());
  return uid_registry().count(uid) != 0;
}

DataHandle HandleLease::acquire(Runtime& rt, std::string debug_name) {
  PARMVN_EXPECTS(uid_ != 0);
  PARMVN_EXPECTS(rt.uid() == uid_);
  const DataHandle h = rt.register_data(std::move(debug_name));
  handles_.push_back(h);
  return h;
}

void HandleLease::release() noexcept {
  if (handles_.empty()) return;
  std::unique_lock registry_lock(uid_registry_mutex());
  const auto it = uid_registry().find(uid_);
  if (it != uid_registry().end()) {
    for (const DataHandle h : handles_) {
      // A non-quiescent handle (in-flight task references) fails its
      // release preconditions; skip it — one leaked slot beats throwing
      // from a destructor — but count it, so the leak is observable
      // (Runtime::handles_leaked(), stderr warning at destruction) instead
      // of silent.
      try {
        it->second->release_handle(h);
      } catch (...) {
        it->second->handles_leaked.fetch_add(1, std::memory_order_relaxed);
        total_leaked.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  handles_.clear();
}

i64 Runtime::tasks_executed() const noexcept {
  return impl_->executed.load(std::memory_order_relaxed);
}

i64 Runtime::tasks_stolen() const noexcept { return 0; }

i64 Runtime::handles_leaked() const noexcept {
  return impl_->handles_leaked.load(std::memory_order_relaxed);
}

i64 Runtime::total_handles_leaked() noexcept {
  return total_leaked.load(std::memory_order_relaxed);
}

// Shared by every record-append guard: first failure downgrades
// tracing (workers check trace_enabled()) and warns once — a trace is a
// diagnostic artifact, never worth failing the computation for.
void Runtime::Impl::trace_record_failed() noexcept {
  if (trace_ok.exchange(false, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[parmvn::rt] trace record append failed; tracing disabled "
                 "for the rest of this runtime's life\n");
  }
}

const std::vector<TaskRecord>& Runtime::trace() const {
  return impl_->trace();
}

std::unique_ptr<Runtime::Impl> make_inline_impl(u64 uid, bool tracing) {
  return std::make_unique<InlineImpl>(uid, tracing);
}

}  // namespace parmvn::rt
