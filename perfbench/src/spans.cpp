#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "common/timer.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

// Innermost open span of the calling thread, and the thread's track index.
thread_local std::int64_t t_current = -1;
std::atomic<int> g_next_thread{0};
thread_local int t_thread = g_next_thread.fetch_add(1);

}  // namespace

std::int64_t SpanLog::open(std::string_view layer, std::string_view name,
                           std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = t_current;
  s.request = request;
  s.thread = t_thread;
  s.start_s = parmvn::global_time_s();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_current = id;
  return id;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  const double now = parmvn::global_time_s();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now;
  t_current = s.parent;
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children nest strictly inside their parent on the same thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

void SpanLog::write_chrome(
    const std::string& path,
    const std::vector<parmvn::rt::TaskRecord>& tasks) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":0,"args":{"name":"runtime tasks"}},)"
      << "\n"
      << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"benchmark spans"}})";
  for (const parmvn::rt::TaskRecord& r : tasks) {
    out << ",\n{\"name\":" << json_string(r.name)
        << R"(,"cat":"task","ph":"X","pid":0,"tid":)" << r.worker
        << ",\"ts\":" << r.start_s * 1e6 << ",\"dur\":"
        << (r.end_s - r.start_s) * 1e6 << R"(,"args":{"stolen":)"
        << (r.stolen ? "true" : "false") << "}}";
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":" << json_string(s.layer + "." + s.name)
        << ",\"cat\":" << json_string(s.layer)
        << R"(,"ph":"X","pid":1,"tid":)" << s.thread << ",\"ts\":"
        << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << R"(,"args":{"id":)" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("trace write failed: " + path);
}

}  // namespace perfbench
