#ifndef CUMULON_PERFBENCH_COMMON_H_
#define CUMULON_PERFBENCH_COMMON_H_

// Shared plumbing of the repo benchmark: sample sets, the metric report and
// its final JSON line, the host stamp, process resource probes, and the
// in-memory span recorder the traced run writes at exit.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace cumulon::perfbench {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// A set of measured values. Quantiles interpolate linearly between order
/// statistics (numpy's default), so a median of an even count is the mean
/// of the two middle values.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const;
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Named metrics of one run. Each metric keeps its unit, median, quartiles
/// and sample count; PrintTable shows all of them and ResultLine renders
/// the selected names as the run's last stdout line.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit,
           const Samples& samples);
  /// A single derived value (a ratio, a count): n = `count`.
  void AddValue(const std::string& name, const std::string& unit,
                double value, int64_t count = 1);
  bool Has(const std::string& name) const;

  void PrintTable(const std::string& title) const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} over `names`
  /// (every name must have been added).
  std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  struct Entry {
    std::string unit;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    int64_t n = 0;
    // The highest of p90/p99/p99.9 with at least ten samples above it
    // (tail_q = 0 when there are fewer than 100 samples).
    double tail_q = 0.0;
    double tail = 0.0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Counts correctness-gate misses of a run. Every miss is printed at once;
/// the run still completes so all misses of one run are reported together.
class Gate {
 public:
  void Check(bool ok, const std::string& what);
  void CheckStatus(const Status& status, const std::string& what);
  bool ok() const { return misses_ == 0; }
  int64_t misses() const { return misses_; }

 private:
  int64_t misses_ = 0;
};

/// The host stamp every output carries: core count, CPU model, the SIMD
/// features and the kernel the Gemm dispatch resolves to, build type and
/// seed. Kernel throughput differs ~2x across hosts, so numbers from two
/// stamps must not be compared silently.
std::string HostStampJson(uint64_t seed);

double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
int HostCores();

/// One traced interval. `parent` is the id of the enclosing span (0 = a
/// root); `run` numbers the measured operation it belongs to.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t run = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe in-memory span store. Spans are recorded only by the
/// benchmark's own decorators and timed calls; nothing is written until
/// WriteJson at exit. Parents come from a per-thread stack; a span opened
/// on a thread with an empty stack falls back to the main-thread-published
/// `ambient` parent (the engine job currently running), so tile reads on
/// pool workers nest under their job.
class SpanRecorder {
 public:
  SpanRecorder();

  double Now() const { return clock_.ElapsedSeconds(); }
  /// Opens a span on the calling thread and returns its id.
  int64_t Begin(const std::string& name);
  /// Closes the innermost open span of the calling thread.
  void End();

  void set_run(int64_t run) { run_.store(run); }
  void set_ambient(int64_t parent) { ambient_.store(parent); }

  /// Self time per layer (the span name's prefix up to the first '.'):
  /// each span's duration minus the union of its children's intervals.
  std::map<std::string, double> LayerSelfSeconds() const;
  size_t size() const;
  Status WriteJson(const std::string& path, const std::string& header) const;

 private:
  Stopwatch clock_;
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> run_{0};
  std::atomic<int64_t> ambient_{0};
  mutable Mutex mu_{"SpanRecorder::mu_"};
  std::vector<Span> spans_ CUMULON_GUARDED_BY(mu_);
};

/// RAII span over `recorder`; a null recorder makes it a no-op, which is
/// how the untraced run pays nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->Begin(name);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_ = 0;
};

/// Times `fn` once under a span and returns the elapsed seconds.
double TimeCall(SpanRecorder* spans, const std::string& name,
                const std::function<void()>& fn);

/// Number of set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 7;

/// Runs `setup` `repeats` times and returns the per-repeat wall seconds.
/// `teardown` runs untimed before every repeat but the first and must
/// release the previous set-up (the caller keeps only the last world), so
/// the peak memory stays that of one set-up.
Samples RepeatSetup(int repeats, const std::function<void()>& teardown,
                    const std::function<void()>& setup);

/// Calls `op(i)` until `seconds` have elapsed and at least `min_ops` ran
/// (at most `max_ops`); returns each call's wall seconds. `op` returns
/// false to stop early (a failed operation).
Samples TimeLoop(double seconds, int min_ops, int max_ops,
                 const std::function<bool(int)>& op);

/// Prints the per-layer self-time table, writes the span file under
/// config.out_dir and adds obs.trace_overhead_pct (traced vs untraced
/// median of the workload's operation).
void FinishTrace(const RunConfig& config, const SpanRecorder& spans,
                 double untraced_op_s, double traced_op_s, Report* report);

/// Every per-layer metric name BENCHMARK.json lists; a traced run reports
/// each of them, with 0 for layers the workload bypasses.
const std::vector<std::string>& PerLayerMetricNames();
/// Adds 0 for every per-layer metric the workload did not measure.
void FillBypassedLayers(Report* report);

/// Runs the FMA-throughput probe (one core) and returns GFLOP/s; 0 when
/// the CPU has no AVX2+FMA.
double FmaPeakGflops();

}  // namespace cumulon::perfbench

#endif  // CUMULON_PERFBENCH_COMMON_H_
