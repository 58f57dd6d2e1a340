#include "perfbench/decorators.h"

#include <utility>

namespace cumulon::perfbench {
namespace {

int64_t Nanos(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

}  // namespace

Status TimingTileStore::Put(const std::string& matrix, TileId id,
                            std::shared_ptr<const Tile> tile,
                            int writer_node) {
  ScopedSpan span(spans_, "dfs.put");
  Stopwatch sw;
  Status st = inner_->Put(matrix, id, std::move(tile), writer_node);
  put_ns_.fetch_add(Nanos(sw.ElapsedSeconds()));
  put_n_.fetch_add(1);
  return st;
}

Result<std::shared_ptr<const Tile>> TimingTileStore::Get(
    const std::string& matrix, TileId id, int reader_node) {
  ScopedSpan span(spans_, "dfs.get");
  Stopwatch sw;
  auto tile = inner_->Get(matrix, id, reader_node);
  get_wait_ns_.fetch_add(Nanos(sw.ElapsedSeconds()));
  get_n_.fetch_add(1);
  return tile;
}

TileFuture TimingTileStore::GetAsync(const std::string& matrix, TileId id,
                                     int reader_node) {
  ScopedSpan span(spans_, "dfs.get_async");
  Stopwatch sw;
  TileFuture future = inner_->GetAsync(matrix, id, reader_node);
  get_wait_ns_.fetch_add(Nanos(sw.ElapsedSeconds()));
  get_async_n_.fetch_add(1);
  return future;
}

void TimingTileStore::Prefetch(const std::string& matrix, TileId id,
                               int reader_node) {
  prefetch_n_.fetch_add(1);
  inner_->Prefetch(matrix, id, reader_node);
}

Status TimingTileStore::DeleteMatrix(const std::string& matrix) {
  return inner_->DeleteMatrix(matrix);
}

std::vector<int> TimingTileStore::PreferredNodes(const std::string& matrix,
                                                 TileId id) {
  return inner_->PreferredNodes(matrix, id);
}

Status TimingTileStore::PutMeta(const std::string& matrix, TileId id,
                                int64_t bytes, int writer_node) {
  return inner_->PutMeta(matrix, id, bytes, writer_node);
}

TimingTileStore::Counts TimingTileStore::counts() const {
  Counts c;
  c.get_n = get_n_.load() + get_async_n_.load();
  c.get_async_n = get_async_n_.load();
  c.prefetch_n = prefetch_n_.load();
  c.put_n = put_n_.load();
  c.get_wait_s = 1e-9 * static_cast<double>(get_wait_ns_.load());
  c.put_s = 1e-9 * static_cast<double>(put_ns_.load());
  return c;
}

Result<JobStats> TimingEngine::RunJob(const JobSpec& job) {
  ScopedSpan span(spans_, "cluster.job");
  if (spans_ != nullptr) spans_->set_ambient(span.id());
  Stopwatch sw;
  auto stats = inner_->RunJob(job);
  const double wall = sw.ElapsedSeconds();
  if (spans_ != nullptr) spans_->set_ambient(0);
  if (!stats.ok()) return stats;
  jobs_.push_back(JobRecord{wall, stats->duration_seconds, stats->num_tasks,
                            stats->total_task_seconds});
  if (keep_specs_) {
    JobSpec copy;
    copy.name = job.name;
    copy.tasks = job.tasks;
    for (Task& task : copy.tasks) task.work = nullptr;
    specs_.push_back(std::move(copy));
  }
  return stats;
}

Result<JsonValue> TimingTransport::Call(const JsonValue& request) {
  const std::string type = request.StringOr("type", "");
  ScopedSpan span(spans_, "svc.rpc." + type);
  Stopwatch sw;
  auto reply = inner_->Call(request);
  const double rtt = sw.ElapsedSeconds();
  ++calls_;
  if (type == "SUBMIT") submit_rtt_s_.Add(rtt);
  if (type == "POLL") poll_rtt_s_.Add(rtt);
  return reply;
}

}  // namespace cumulon::perfbench
