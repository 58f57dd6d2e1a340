#ifndef CUMULON_PERFBENCH_WORKLOADS_H_
#define CUMULON_PERFBENCH_WORKLOADS_H_

// Entry points of the benchmark's workloads. Each returns the process exit
// code: 0 when every correctness gate held, 1 otherwise.

#include <string>
#include <vector>

#include "perfbench/common.h"

namespace cumulon::perfbench {

/// rsvd_stream (real_workloads.cc).
int RunRealWorkload(const RunConfig& config);
/// svc_openloop (svc_openloop.cc).
int RunSvcOpenLoop(const RunConfig& config);
/// Decorator self-tests (selftest.cc).
int RunSelfTest();

/// The end-to-end metrics every workload reports in its result line.
const std::vector<std::string>& EndToEndMetricNames();

/// Adds peak_rss_mb and fail_share, prints the host stamp and the metric
/// table, then prints the result line (end-to-end metrics untraced,
/// per-layer metrics traced) as the last line of stdout. Returns the exit
/// code.
int FinishRun(const RunConfig& config, Report& report, bool correct,
              int64_t attempted, int64_t failed);

}  // namespace cumulon::perfbench

#endif  // CUMULON_PERFBENCH_WORKLOADS_H_
