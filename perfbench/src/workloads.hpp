// The four benchmark workloads. Each runs its set-up, its checks and its
// timed phase(s), and fills the end-to-end metrics (config.trace == false)
// or the per-layer metrics (config.trace == true) of RunOutput.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "runtime/trace.hpp"
#include "spans.hpp"

namespace perfbench {

/// The traced run's raw material, written into the merged trace file.
struct TraceCapture {
  SpanLog spans;
  std::vector<parmvn::rt::TaskRecord> tasks;
};

void run_wind_dense_cold(const RunConfig& cfg, RunOutput& out,
                         TraceCapture& trace);
void run_wind_tlr_cold(const RunConfig& cfg, RunOutput& out,
                       TraceCapture& trace);
void run_wind_vecchia_ladder(const RunConfig& cfg, RunOutput& out,
                             TraceCapture& trace);
void run_serve_ladder_closed(const RunConfig& cfg, RunOutput& out,
                             TraceCapture& trace);

/// Set-up repetitions of an end-to-end run; setup_s is their median.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
