#include "perfbench/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/strings.h"
#include "matrix/kernel_config.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cumulon::perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

void Report::Add(const std::string& name, const std::string& unit,
                 const Samples& samples) {
  if (entries_.count(name) == 0) order_.push_back(name);
  Entry& e = entries_[name];
  e.unit = unit;
  e.median = samples.Median();
  e.q1 = samples.Quantile(0.25);
  e.q3 = samples.Quantile(0.75);
  e.n = static_cast<int64_t>(samples.size());
  e.tail_q = 0.0;
  for (double q : {0.9, 0.99, 0.999}) {
    if (e.n * (1 - q) >= 10) e.tail_q = q;
  }
  e.tail = e.tail_q > 0 ? samples.Quantile(e.tail_q) : 0.0;
}

void Report::AddValue(const std::string& name, const std::string& unit,
                      double value, int64_t count) {
  if (entries_.count(name) == 0) order_.push_back(name);
  entries_[name] = Entry{unit, value, value, value, count};
}

bool Report::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

void Report::PrintTable(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  std::printf("  %-26s %-8s %14s %14s %14s %7s  %s\n", "metric", "unit",
              "median", "q1", "q3", "n", "tail");
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::printf("  %-26s %-8s %14.6g %14.6g %14.6g %7lld", name.c_str(),
                e.unit.c_str(), e.median, e.q1, e.q3,
                static_cast<long long>(e.n));
    if (e.tail_q > 0) std::printf("  p%g %.6g", 100 * e.tail_q, e.tail);
    std::printf("\n");
  }
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed,
                               const std::vector<std::string>& names) const {
  std::string out = StrCat("{\"correct\": ", correct ? "true" : "false",
                           ", \"attempted\": ", attempted,
                           ", \"failed\": ", failed, ", \"metrics\": {");
  bool first = true;
  for (const std::string& name : names) {
    const Entry& e = entries_.at(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g",
                  std::isfinite(e.median) ? e.median : 0.0);
    out += StrCat(first ? "" : ", ", "\"", name, "\": {\"value\": ", value,
                  ", \"unit\": \"", e.unit, "\"}");
    first = false;
  }
  out += "}}";
  return out;
}

void Gate::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++misses_;
  std::printf("CORRECTNESS MISS: %s\n", what.c_str());
}

void Gate::CheckStatus(const Status& status, const std::string& what) {
  Check(status.ok(), StrCat(what, ": ", status.ToString()));
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string escaped;
        for (char c : model) {
          if (c == '"' || c == '\\') escaped += '\\';
          escaped += c;
        }
        return escaped;
      }
    }
  }
  return "unknown";
}

bool CpuHas(const char* feature) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (std::string(feature) == "avx2") return __builtin_cpu_supports("avx2");
  if (std::string(feature) == "fma") return __builtin_cpu_supports("fma");
  if (std::string(feature) == "avx512f") {
    return __builtin_cpu_supports("avx512f");
  }
#endif
  (void)feature;
  return false;
}

}  // namespace

int HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string HostStampJson(uint64_t seed) {
  std::string simd;
  for (const char* f : {"avx2", "fma", "avx512f"}) {
    if (CpuHas(f)) simd += StrCat(simd.empty() ? "" : "+", f);
  }
  return StrCat("{\"nproc\": ", HostCores(), ", \"cpu\": \"", CpuModel(),
                "\", \"simd\": \"", simd.empty() ? "none" : simd,
                "\", \"kernel\": \"",
                KernelModeName(ResolveKernelMode(KernelMode::kAuto)),
                "\", \"build\": \"", PERFBENCH_BUILD_TYPE,
                "\", \"seed\": ", seed, "}");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {
thread_local std::vector<int64_t> t_open_spans;
thread_local std::vector<size_t> t_open_index;
}  // namespace

SpanRecorder::SpanRecorder() {
  MutexLock lock(&mu_);
  spans_.reserve(1 << 16);
}

int64_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.id = next_id_.fetch_add(1);
  span.parent = t_open_spans.empty() ? ambient_.load() : t_open_spans.back();
  span.run = run_.load();
  span.name = name;
  span.start = Now();
  const int64_t id = span.id;
  size_t index = 0;
  {
    MutexLock lock(&mu_);
    index = spans_.size();
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(id);
  t_open_index.push_back(index);
  return id;
}

void SpanRecorder::End() {
  if (t_open_index.empty()) return;
  const double now = Now();
  {
    MutexLock lock(&mu_);
    spans_[t_open_index.back()].end = now;
  }
  t_open_spans.pop_back();
  t_open_index.pop_back();
}

size_t SpanRecorder::size() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::LayerSelfSeconds() const {
  std::vector<Span> spans;
  {
    MutexLock lock(&mu_);
    spans = spans_;
  }
  std::map<int64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = by_id.find(s.parent);
    if (it != by_id.end()) children[it->second].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent: children
    // on several pool workers overlap, and must not count twice.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

Status SpanRecorder::WriteJson(const std::string& path,
                               const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal(StrCat("cannot open ", path));
  std::fprintf(f, "{\"header\": %s,\n\"spans\": [\n", header.c_str());
  MutexLock lock(&mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %lld, \"parent\": %lld, \"run\": %lld, "
                 "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}",
                 i == 0 ? "" : ",\n", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.run), s.name.c_str(), s.start,
                 s.end);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return Status::Internal(StrCat("write ", path));
  return Status::OK();
}

double TimeCall(SpanRecorder* spans, const std::string& name,
                const std::function<void()>& fn) {
  ScopedSpan span(spans, name);
  Stopwatch sw;
  fn();
  return sw.ElapsedSeconds();
}

Samples RepeatSetup(int repeats, const std::function<void()>& teardown,
                    const std::function<void()>& setup) {
  Samples samples;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) teardown();
    Stopwatch sw;
    setup();
    samples.Add(sw.ElapsedSeconds());
  }
  return samples;
}

Samples TimeLoop(double seconds, int min_ops, int max_ops,
                 const std::function<bool(int)>& op) {
  Samples samples;
  Stopwatch total;
  for (int i = 0; i < max_ops; ++i) {
    if (i >= min_ops && total.ElapsedSeconds() >= seconds) break;
    Stopwatch sw;
    const bool ok = op(i);
    samples.Add(sw.ElapsedSeconds());
    if (!ok) break;
  }
  return samples;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"matrix.gemm_gflops", "GFLOP/s"},
      {"matrix.fma_peak_gflops", "GFLOP/s"},
      {"matrix.gemm_peak_frac", "ratio"},
      {"matrix.flops_g", "GFLOP"},
      {"dfs.get_n", "count"},
      {"dfs.get_mb", "MB"},
      {"dfs.get_wait_s", "s"},
      {"dfs.put_n", "count"},
      {"dfs.put_s", "s"},
      {"dfs.cache_hit_ratio", "ratio"},
      {"exec.plan_s", "s"},
      {"exec.tasks", "count"},
      {"exec.stall_frac", "ratio"},
      {"exec.spill_refetch_mb", "MB"},
      {"exec.mem_peak_mb", "MB"},
      {"exec.task_p50_s", "s"},
      {"exec.task_max_s", "s"},
      {"cluster.jobs", "count"},
      {"cluster.job_s", "s"},
      {"cluster.slot_busy_frac", "ratio"},
      {"cluster.job_model_err_pct", "%"},
      {"cost.calibrate_s", "s"},
      {"plan.model_err_pct", "%"},
      {"lang.optimize_ms", "ms"},
      {"lang.lower_ms", "ms"},
      {"verify.ms", "ms"},
      {"opt.candidates", "count"},
      {"opt.frontier_n", "count"},
      {"opt.predict_ms", "ms"},
      {"opt.estimate_ms", "ms"},
      {"sched.queue_wait_p50_s", "s"},
      {"sched.run_p50_s", "s"},
      {"sched.admitted", "count"},
      {"sched.rejected", "count"},
      {"svc.submit_rtt_p50_ms", "ms"},
      {"svc.poll_rtt_p50_ms", "ms"},
      {"svc.admission_p50_ms", "ms"},
      {"svc.rpc_n", "count"},
      {"svc.gen_late_ms", "ms"},
      {"svc.cpu_util", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return metrics;
}

}  // namespace

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const LayerMetric& m : LayerMetrics()) out.push_back(m.name);
    return out;
  }();
  return names;
}

void FillBypassedLayers(Report* report) {
  for (const LayerMetric& m : LayerMetrics()) {
    if (!report->Has(m.name)) report->AddValue(m.name, m.unit, 0.0, 0);
  }
}

void FinishTrace(const RunConfig& config, const SpanRecorder& spans,
                 double untraced_op_s, double traced_op_s, Report* report) {
  report->AddValue("obs.trace_overhead_pct", "%",
                   untraced_op_s > 0
                       ? 100.0 * (traced_op_s - untraced_op_s) / untraced_op_s
                       : 0.0);
  std::printf("per-layer self time over the traced phase (%zu spans):\n",
              spans.size());
  for (const auto& [layer, seconds] : spans.LayerSelfSeconds()) {
    std::printf("  %-10s %10.4f s\n", layer.c_str(), seconds);
  }
  const std::string path = StrCat(config.out_dir, "/spans_", config.workload,
                                  "_", config.seed, ".json");
  const std::string header =
      StrCat("{\"workload\": \"", config.workload,
             "\", \"host\": ", HostStampJson(config.seed), "}");
  Status st = spans.WriteJson(path, header);
  if (st.ok()) {
    std::printf("span file: %s\n", path.c_str());
  } else {
    std::printf("span file not written: %s\n", st.ToString().c_str());
  }
}

#if defined(__x86_64__)
namespace {

/// Twelve independent FMA dependency chains keep both FMA ports busy
/// despite the 4-cycle latency; the return value keeps the loop alive.
__attribute__((target("avx2,fma"), noinline)) double FmaProbeKernel(
    int64_t iters) {
  __m256d acc[12];
  for (int i = 0; i < 12; ++i) acc[i] = _mm256_set1_pd(1.0 + i * 1e-3);
  const __m256d a = _mm256_set1_pd(0.999999);
  const __m256d b = _mm256_set1_pd(1e-7);
  for (int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 12; ++i) acc[i] = _mm256_fmadd_pd(acc[i], a, b);
  }
  __m256d sum = acc[0];
  for (int i = 1; i < 12; ++i) sum = _mm256_add_pd(sum, acc[i]);
  alignas(32) double out[4];
  _mm256_store_pd(out, sum);
  return out[0] + out[1] + out[2] + out[3];
}

}  // namespace
#endif

double FmaPeakGflops() {
#if defined(__x86_64__)
  if (!CpuHas("avx2") || !CpuHas("fma")) return 0.0;
  Samples rates;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int64_t kIters = 20'000'000;
    Stopwatch sw;
    const double sink = FmaProbeKernel(kIters);
    const double seconds = sw.ElapsedSeconds();
    // 12 independent 4-wide FMA chains, 2 flops per lane per FMA.
    rates.Add(sink == 0.123 ? 0.0 : kIters * 12.0 * 4 * 2 / seconds / 1e9);
  }
  return rates.Quantile(1.0);
#else
  return 0.0;
#endif
}

}  // namespace cumulon::perfbench
