// In-memory span log for the traced run: one span per public call the
// benchmark makes into a parmvn module (name, start, end, parent span,
// request id), timed on parmvn::global_time_s() — the clock the runtime
// stamps its rt::TaskRecords with — so spans and task records share one
// time origin in the merged Chrome/Perfetto file.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/trace.hpp"

namespace perfbench {

struct Span {
  std::string layer;  // module the call enters (geo, core, engine, ep, serve)
  std::string name;   // the public function
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;   // enclosing span on the same thread, -1 = root
  std::int64_t request = -1;  // request / operation id, -1 = none
  int thread = 0;             // benchmark-side thread index
};

class SpanLog {
 public:
  /// Spans are recorded only while enabled (untraced phases pay one
  /// branch per call site). Toggle only while no other thread records.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Open a span on the calling thread; returns its id (-1 when disabled).
  std::int64_t open(std::string_view layer, std::string_view name,
                    std::int64_t request);
  void close(std::int64_t id);

  /// Self time per layer: each span's duration minus the time covered by
  /// its child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// One Chrome trace-event file: the runtime's task records (pid 0, one
  /// track per worker) and the spans (pid 1, one track per benchmark
  /// thread) on the shared time origin.
  void write_chrome(const std::string& path,
                    const std::vector<parmvn::rt::TaskRecord>& tasks) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view layer, std::string_view name,
             std::int64_t request = -1)
      : log_(log), id_(log.open(layer, name, request)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

}  // namespace perfbench
