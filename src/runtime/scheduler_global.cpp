// The threaded scheduler: one priority-ordered ready queue under one lock.
//
// Design: every piece of mutable state — the handle table, the task graph,
// the ready priority queue — lives under one mutex; workers take that lock
// to pop a task and again to record its completion. The ready queue runs
// the highest priority first and, within equal priority, the earliest
// submission first. A ready submission wakes one idle worker; a completion
// that readies successors wakes them all. Inline mode (0 workers) lives in
// runtime.cpp.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "runtime/runtime_impl.hpp"

namespace parmvn::rt {

namespace {

enum class TaskState { kWaiting, kReady, kRunning, kDone };

struct TaskNode {
  std::string name;
  std::function<void()> fn;
  int priority = 0;
  i64 seq = 0;  // submission order; FIFO tie-break in the ready queue
  i64 unmet = 0;
  TaskState state = TaskState::kWaiting;
  std::vector<TaskNode*> successors;
};

struct ReadyOrder {
  bool operator()(const TaskNode* a, const TaskNode* b) const {
    if (a->priority != b->priority) return a->priority < b->priority;
    return a->seq > b->seq;  // earlier submission first
  }
};

struct HandleState {
  TaskNode* last_writer = nullptr;
  std::vector<TaskNode*> readers_since_write;
  std::string debug_name;
  bool in_use = false;  // guards double-release / use-after-release
};

class GlobalImpl final : public Runtime::Impl {
 public:
  GlobalImpl(u64 uid_arg, int threads, bool trace_on)
      : Impl(uid_arg, trace_on) {
    PARMVN_EXPECTS(threads >= 1);
    workers.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~GlobalImpl() override {
    {
      std::unique_lock lock(mutex);
      shutting_down = true;
    }
    ready_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  // ---- submission path (submitter threads) ----
  DataHandle register_handle(std::string debug_name) override {
    std::unique_lock lock(mutex);
    i64 id;
    if (!free_ids.empty()) {
      id = free_ids.back();
      free_ids.pop_back();
    } else {
      id = static_cast<i64>(handles.size());
      handles.push_back(HandleState{});
    }
    HandleState& hs = handles[static_cast<std::size_t>(id)];
    hs.debug_name = std::move(debug_name);
    hs.in_use = true;
    return detail::HandleMint::make(id);
  }

  void release_handle(DataHandle handle) override {
    std::unique_lock lock(mutex);
    PARMVN_EXPECTS(handle.valid());
    PARMVN_EXPECTS(handle.id() < static_cast<i64>(handles.size()));
    HandleState& hs = handles[static_cast<std::size_t>(handle.id())];
    PARMVN_EXPECTS(hs.in_use);
    // Releasing a handle the current epoch still references would let a
    // recycled slot's tasks miss their dependency edges against in-flight
    // work: reject it here instead of racing later (wait_all() clears these
    // on epoch completion).
    PARMVN_EXPECTS(hs.last_writer == nullptr &&
                   hs.readers_since_write.empty());
    hs = HandleState{};
    free_ids.push_back(handle.id());
  }

  void submit(std::string_view name, std::span<const DataAccess> accesses,
              std::function<void()> fn, int priority) override {
    // The task node is heap-allocated up front; the name is only stored when
    // tracing asked for it, and the access list is consumed in place — the
    // submit path performs no other per-task allocation.
    auto node = std::make_unique<TaskNode>();
    if (tracing) node->name.assign(name);
    node->fn = std::move(fn);
    node->priority = priority;
    TaskNode* task = node.get();

    std::unique_lock lock(mutex);
    // Validate under the same lock acquisition as the bookkeeping (one lock
    // round-trip per submit); rejected submissions leave no phantom task
    // behind because nothing below has run yet. The in_use check catches
    // tasks submitted with a handle that was released (and possibly already
    // recycled to another owner).
    for (const DataAccess& acc : accesses) {
      PARMVN_EXPECTS(acc.handle.valid());
      PARMVN_EXPECTS(acc.handle.id() < static_cast<i64>(handles.size()));
      PARMVN_EXPECTS(
          handles[static_cast<std::size_t>(acc.handle.id())].in_use);
    }
    task->seq = next_seq++;
    ++in_flight;
    all_tasks.push_back(std::move(node));

    auto add_dep = [&](TaskNode* dep) {
      if (dep == nullptr || dep == task || dep->state == TaskState::kDone)
        return;
      dep->successors.push_back(task);
      ++task->unmet;
    };

    for (const DataAccess& acc : accesses) {
      HandleState& hs = handles[static_cast<std::size_t>(acc.handle.id())];
      switch (acc.mode) {
        case Access::kRead:
          add_dep(hs.last_writer);
          hs.readers_since_write.push_back(task);
          break;
        case Access::kWrite:
        case Access::kReadWrite:
          add_dep(hs.last_writer);
          for (TaskNode* r : hs.readers_since_write) add_dep(r);
          hs.readers_since_write.clear();
          hs.last_writer = task;
          break;
      }
    }

    if (task->unmet == 0) {
      task->state = TaskState::kReady;
      ready.push(task);
      lock.unlock();
      ready_cv.notify_one();
    }
  }

  void wait_all() override {
    std::unique_lock lock(mutex);
    done_cv.wait(lock, [this] { return in_flight == 0; });
    lock.unlock();
    finish_epoch();
  }

  // External cancel token: sets the same flag a first task error does
  // (not-yet-started tasks become no-ops) without recording an error, so a
  // pending wait_all() drains and returns normally; finish_epoch clears it.
  void cancel() override {
    std::unique_lock lock(mutex);
    cancelled = true;
  }

  [[nodiscard]] bool cancel_requested() const noexcept override {
    std::unique_lock lock(mutex);
    return cancelled;
  }

  std::exception_ptr drain_pending_error() noexcept override {
    std::unique_lock lock(mutex);
    done_cv.wait(lock, [this] { return in_flight == 0; });
    return first_error;
  }

  [[nodiscard]] int num_threads() const noexcept override {
    return static_cast<int>(workers.size());
  }

  [[nodiscard]] const std::vector<TaskRecord>& trace() const override {
    return records;
  }

 private:
  void finish_epoch() {
    std::unique_lock lock(mutex);
    all_tasks.clear();
    for (HandleState& hs : handles) {
      hs.last_writer = nullptr;
      hs.readers_since_write.clear();
    }
    if (first_error) {
      std::exception_ptr err = first_error;
      first_error = nullptr;
      cancelled = false;
      lock.unlock();
      std::rethrow_exception(err);
    }
    cancelled = false;
  }

  // ---- worker path ----
  void worker_loop(int worker_id) {
    std::unique_lock lock(mutex);
    for (;;) {
      ready_cv.wait(lock, [this] { return shutting_down || !ready.empty(); });
      if (ready.empty()) {
        if (shutting_down) return;
        continue;
      }
      TaskNode* task = ready.top();
      ready.pop();
      task->state = TaskState::kRunning;
      const bool skip = cancelled;
      lock.unlock();

      const bool rec = trace_enabled();
      const double t0 = rec ? global_time_s() : 0.0;
      std::exception_ptr err;
      if (!skip) {
        try {
          task->fn();
        } catch (...) {
          err = std::current_exception();
        }
      }
      const double t1 = rec ? global_time_s() : 0.0;

      lock.lock();
      if (rec) {
        // Never let a record-append failure escape the worker loop (it
        // would terminate) or masquerade as a task error: downgrade
        // tracing instead.
        try {
          PARMVN_FAULT_POINT("rt.trace");
          records.push_back({task->name, worker_id, t0, t1,
                             /*stolen=*/false});
        } catch (...) {
          trace_record_failed();
        }
      }
      if (err && !first_error) {
        first_error = err;
        cancelled = true;  // not-yet-started tasks become no-ops
      }
      task->state = TaskState::kDone;
      executed.fetch_add(1, std::memory_order_relaxed);
      bool notify_ready = false;
      for (TaskNode* succ : task->successors) {
        if (--succ->unmet == 0) {
          succ->state = TaskState::kReady;
          ready.push(succ);
          notify_ready = true;
        }
      }
      --in_flight;
      if (in_flight == 0) done_cv.notify_all();
      if (notify_ready) ready_cv.notify_all();
    }
  }

  // All mutable state below is guarded by `mutex` (mutable so the const
  // cancel_requested() probe can take it).
  mutable std::mutex mutex;
  std::condition_variable ready_cv;
  std::condition_variable done_cv;
  std::vector<HandleState> handles;
  std::vector<i64> free_ids;  // released slots, reused by register_handle
  std::deque<std::unique_ptr<TaskNode>> all_tasks;
  std::priority_queue<TaskNode*, std::vector<TaskNode*>, ReadyOrder> ready;
  std::vector<std::thread> workers;
  std::vector<TaskRecord> records;
  std::exception_ptr first_error;
  i64 next_seq = 0;
  i64 in_flight = 0;
  bool shutting_down = false;
  bool cancelled = false;
};

}  // namespace

std::unique_ptr<Runtime::Impl> make_global_impl(u64 uid, int threads,
                                                bool tracing) {
  return std::make_unique<GlobalImpl>(uid, threads, tracing);
}

}  // namespace parmvn::rt
