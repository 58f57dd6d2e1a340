#ifndef CUMULON_PERFBENCH_DECORATORS_H_
#define CUMULON_PERFBENCH_DECORATORS_H_

// Thin timing decorators over the public interfaces the benchmark measures
// from outside: TileStore (the dfs layer), Engine (the cluster layer) and
// Transport (the svc layer). Each forwards every call unchanged, counts it,
// accumulates its wall time and, when a SpanRecorder is attached, records
// one span per call. The traced run wraps the system in them; the untraced
// run does not construct them at all.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "matrix/tile_store.h"
#include "perfbench/common.h"
#include "svc/client.h"

namespace cumulon::perfbench {

/// Decorates a TileStore. get_n counts Get and GetAsync calls; get_wait_s
/// is the wall time the callers spent inside them (blocking reads plus the
/// cost of issuing async ones — awaited async time is the executor's
/// stall, reported by exec.stall_frac).
class TimingTileStore : public TileStore {
 public:
  struct Counts {
    int64_t get_n = 0;
    int64_t get_async_n = 0;
    int64_t prefetch_n = 0;
    int64_t put_n = 0;
    double get_wait_s = 0.0;
    double put_s = 0.0;
  };

  /// `inner` is borrowed; `spans` may be null.
  TimingTileStore(TileStore* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  Status Put(const std::string& matrix, TileId id,
             std::shared_ptr<const Tile> tile, int writer_node) override;
  Result<std::shared_ptr<const Tile>> Get(const std::string& matrix,
                                          TileId id, int reader_node) override;
  TileFuture GetAsync(const std::string& matrix, TileId id,
                      int reader_node) override;
  void Prefetch(const std::string& matrix, TileId id,
                int reader_node) override;
  Status DeleteMatrix(const std::string& matrix) override;
  std::vector<int> PreferredNodes(const std::string& matrix,
                                  TileId id) override;
  Status PutMeta(const std::string& matrix, TileId id, int64_t bytes,
                 int writer_node) override;

  Counts counts() const;

 private:
  TileStore* inner_;
  SpanRecorder* spans_;
  std::atomic<int64_t> get_n_{0};
  std::atomic<int64_t> get_async_n_{0};
  std::atomic<int64_t> prefetch_n_{0};
  std::atomic<int64_t> put_n_{0};
  std::atomic<int64_t> get_wait_ns_{0};
  std::atomic<int64_t> put_ns_{0};
};

/// Decorates an Engine. Keeps every job's wall time, task count and the
/// sum of its task durations; with `keep_specs` it also keeps a copy of
/// each JobSpec (work closures and borrowed scheduling pointers dropped) so
/// the same jobs can be replayed through a SimEngine afterwards.
class TimingEngine : public Engine {
 public:
  struct JobRecord {
    double wall_s = 0.0;
    double makespan_s = 0.0;
    int tasks = 0;
    double task_s = 0.0;
  };

  TimingEngine(Engine* inner, SpanRecorder* spans, bool keep_specs)
      : inner_(inner), spans_(spans), keep_specs_(keep_specs) {}

  Result<JobStats> RunJob(const JobSpec& job) override;
  const ClusterConfig& config() const override { return inner_->config(); }
  TileCacheGroup* tile_caches() const override {
    return inner_->tile_caches();
  }

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  /// Specs of the jobs since the last ClearSpecs; they are the last
  /// specs().size() entries of jobs().
  const std::vector<JobSpec>& specs() const { return specs_; }
  void ClearSpecs() { specs_.clear(); }

 private:
  Engine* inner_;
  SpanRecorder* spans_;
  bool keep_specs_;
  std::vector<JobRecord> jobs_;  // RunJob is called by the thread running
  std::vector<JobSpec> specs_;   // the plan (one plan at a time here)
};

/// Decorates a Transport: per-message-type round-trip times.
class TimingTransport : public Transport {
 public:
  TimingTransport(std::unique_ptr<Transport> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  Result<JsonValue> Call(const JsonValue& request) override;

  int64_t calls() const { return calls_; }
  const Samples& submit_rtt_s() const { return submit_rtt_s_; }
  const Samples& poll_rtt_s() const { return poll_rtt_s_; }

 private:
  std::unique_ptr<Transport> inner_;
  SpanRecorder* spans_;
  int64_t calls_ = 0;  // one caller thread per transport (strict RPC)
  Samples submit_rtt_s_;
  Samples poll_rtt_s_;
};

}  // namespace cumulon::perfbench

#endif  // CUMULON_PERFBENCH_DECORATORS_H_
