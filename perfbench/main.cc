// The repo benchmark binary. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --selftest
//
// Workloads: rsvd_stream, svc_openloop (see README.md). The
// untraced run (--trace 0) measures the end-to-end metrics; the traced run
// (--trace 1) wraps the layers in the timing decorators and reports the
// per-layer metrics plus a span file under --out. The last stdout line is
// the run's result object; the exit code is 0 only when every correctness
// gate held.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "perfbench/workloads.h"

namespace cumulon::perfbench {

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {"setup_s", "run_s",
                                                 "peak_rss_mb"};
  return names;
}

int FinishRun(const RunConfig& config, Report& report, bool correct,
              int64_t attempted, int64_t failed) {
  if (!report.Has("peak_rss_mb")) {
    report.AddValue("peak_rss_mb", "MB", PeakRssMb(), 1);
  }
  report.AddValue("fail_share", "ratio",
                  attempted > 0 ? static_cast<double>(failed) / attempted
                                : 1.0,
                  attempted);
  if (config.trace) FillBypassedLayers(&report);
  std::printf("host: %s\n", HostStampJson(config.seed).c_str());
  report.PrintTable(StrCat("workload ", config.workload, " (seed ",
                           config.seed, ", ", config.seconds, " s, ",
                           config.trace ? "traced" : "untraced", ")"));
  if (attempted < 1) attempted = 1;
  const std::vector<std::string>& names =
      config.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  std::printf("%s\n",
              report.ResultLine(correct, attempted, failed, names).c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace cumulon::perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using cumulon::perfbench::RunConfig;
  RunConfig config;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      selftest = true;
    } else if (flag == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--out" && has_value) {
      config.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  mkdir(config.out_dir.c_str(), 0755);
  if (selftest) return cumulon::perfbench::RunSelfTest();
  if (config.seconds <= 0) return Usage();
  if (config.workload == "rsvd_stream") {
    return cumulon::perfbench::RunRealWorkload(config);
  }
  if (config.workload == "svc_openloop") {
    return cumulon::perfbench::RunSvcOpenLoop(config);
  }
  return Usage();
}
