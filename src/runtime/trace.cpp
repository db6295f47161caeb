#include "runtime/trace.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/contracts.hpp"

namespace parmvn::rt {

void write_chrome_trace(const std::vector<TaskRecord>& records,
                        const std::string& path) {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    // ofstream swallows the reason; errno from the underlying open is the
    // only context available, and "permission denied" vs "no such
    // directory" is exactly what the caller needs to act on.
    throw Error("cannot open trace file: " + path + ": " +
                (errno != 0 ? std::strerror(errno) : "unknown error"));
  }
  out << "[\n";
  bool first = true;
  for (const TaskRecord& r : records) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":")" << r.name << R"(","ph":"X","pid":0,"tid":)"
        << r.worker << R"(,"ts":)" << std::fixed << std::setprecision(3)
        << r.start_s * 1e6 << R"(,"dur":)" << (r.end_s - r.start_s) * 1e6
        << "}";
  }
  out << "\n]\n";
  out.flush();
  if (!out) {
    throw Error("trace write failed: " + path + ": " +
                (errno != 0 ? std::strerror(errno) : "unknown error"));
  }
}

std::string summarize_trace(const std::vector<TaskRecord>& records) {
  struct Agg {
    int count = 0;
    double total_s = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const TaskRecord& r : records) {
    Agg& a = by_name[r.name];
    ++a.count;
    a.total_s += r.end_s - r.start_s;
  }
  std::ostringstream os;
  os << std::left << std::setw(24) << "task" << std::right << std::setw(10)
     << "count" << std::setw(14) << "total_s" << std::setw(14) << "mean_ms"
     << "\n";
  for (const auto& [name, agg] : by_name) {
    os << std::left << std::setw(24) << name << std::right << std::setw(10)
       << agg.count << std::setw(14) << std::fixed << std::setprecision(4)
       << agg.total_s << std::setw(14) << std::setprecision(4)
       << (agg.count > 0 ? 1e3 * agg.total_s / agg.count : 0.0) << "\n";
  }
  return os.str();
}

}  // namespace parmvn::rt
