// Execution trace of a runtime session (one record per task, written by
// the worker that ran it).
#pragma once

#include <string>
#include <vector>

namespace parmvn::rt {

struct TaskRecord {
  std::string name;
  int worker = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  // Always false: the single ready queue places no task on a particular
  // worker, so none is ever stolen. Kept because the pipeline benchmark
  // (perfbench/) reads it for its trace files and runtime.steal_frac.
  bool stolen = false;
};

/// Write records as a Chrome `chrome://tracing` / Perfetto JSON file.
void write_chrome_trace(const std::vector<TaskRecord>& records,
                        const std::string& path);

/// Aggregate per-task-name totals, formatted as an aligned text table.
std::string summarize_trace(const std::vector<TaskRecord>& records);

}  // namespace parmvn::rt
