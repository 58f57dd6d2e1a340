// Asynchronous tile prefetch: future/state semantics, request coalescing
// in DfsTileStore, the per-task pipeline's byte budget, cancellation of
// never-consumed fetches, and — the contract that matters most — bitwise
// identical job outputs with prefetching on and off.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/task_io_stats.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "exec/prefetch_pipeline.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"

namespace cumulon {
namespace {

std::shared_ptr<const Tile> MakeTile(int64_t rows, int64_t cols,
                                     double value) {
  auto tile = std::make_shared<Tile>(rows, cols);
  FillTile(tile.get(), value);
  return tile;
}

TEST(TileFutureTest, ReadyFutureResolvesWithoutBlocking) {
  TileFuture future = TileFuture::Ready(MakeTile(2, 2, 3.0));
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  auto got = future.Await();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 3.0);
}

TEST(TileFutureTest, AwaitBlocksUntilResolveAndChargesStall) {
  auto state = std::make_shared<TileFetchState>();
  std::atomic<double> reported{-1.0};
  state->stall_callback = [&](double s) { reported.store(s); };
  TileFuture future = TileFuture::FromState(state);
  EXPECT_FALSE(future.ready());

  TaskIoStats::Current()->Reset();
  std::thread resolver([state] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    state->Resolve(MakeTile(2, 2, 7.0));
  });
  auto got = future.Await();
  resolver.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 7.0);
  EXPECT_GT(TaskIoStats::Current()->stall_seconds, 0.0);
  EXPECT_EQ(TaskIoStats::Current()->async_awaits, 1);
  EXPECT_GT(reported.load(), 0.0);
}

TEST(TileFutureTest, StateAbandonedOnlyWhenEveryWaiterCancels) {
  auto state = std::make_shared<TileFetchState>();  // creator = 1 waiter
  state->AddWaiter();                               // coalesced second future
  TileFuture first = TileFuture::FromState(state);
  TileFuture second = TileFuture::FromState(state);
  first.Cancel();
  EXPECT_FALSE(state->abandoned()) << "one of two waiters remains";
  second.Cancel();
  EXPECT_TRUE(state->abandoned());
}

// ---------------------------------------------------------------------------
// DfsTileStore prefetch pool
// ---------------------------------------------------------------------------

DfsOptions SlowDfs(double latency_seconds) {
  DfsOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  o.read_latency_seconds = latency_seconds;
  return o;
}

TEST(DfsPrefetchTest, ConcurrentGetAsyncCoalesceOntoOneDfsRead) {
  SimDfs dfs(SlowDfs(0.15));
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  MetricsRegistry metrics;
  store.AttachMetrics(&metrics);
  store.EnablePrefetch(4);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 5.0), 0).ok());
  const int64_t reads_before = dfs.TotalStats().reads;

  // All four requests land while the first fetch is still sleeping in the
  // DFS (0.15 s latency), so they must share its state instead of issuing
  // their own reads.
  std::vector<TileFuture> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(store.GetAsync("m", TileId{0, 0}, 1));
  }
  for (TileFuture& future : futures) {
    auto got = future.Await();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ((*got)->At(0, 0), 5.0);
  }
  EXPECT_EQ(dfs.TotalStats().reads, reads_before + 1);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("prefetch.issued", 0), 1);
  EXPECT_EQ(snap.CounterOr("prefetch.coalesced", 0), 3);
  EXPECT_GT(snap.CounterOr("prefetch.stall_ns", 0), 0);
}

TEST(DfsPrefetchTest, CancelledQueuedFetchSkipsTheDfsRead) {
  SimDfs dfs(SlowDfs(0.2));
  DfsTileStore store(&dfs);
  // One worker: tile "a" occupies it for 0.2 s, so "b"'s fetch is still
  // queued — not started — when its only future cancels.
  store.EnablePrefetch(1);
  ASSERT_TRUE(store.Put("a", TileId{0, 0}, MakeTile(8, 8, 1.0), 0).ok());
  ASSERT_TRUE(store.Put("b", TileId{0, 0}, MakeTile(8, 8, 2.0), 0).ok());
  const int64_t reads_before = dfs.TotalStats().reads;

  TileFuture fa = store.GetAsync("a", TileId{0, 0}, 1);
  TileFuture fb = store.GetAsync("b", TileId{0, 0}, 1);
  fb.Cancel();
  auto got_a = fa.Await();
  ASSERT_TRUE(got_a.ok()) << got_a.status();
  EXPECT_EQ((*got_a)->At(0, 0), 1.0);

  // The worker resolves the abandoned fetch (to Cancelled) without touching
  // the DFS; a fresh synchronous Get afterwards still works.
  EXPECT_EQ(dfs.TotalStats().reads, reads_before + 1);
  auto got_b = store.Get("b", TileId{0, 0}, 1);
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ((*got_b)->At(0, 0), 2.0);
}

TEST(DfsPrefetchTest, CancelRacingCoalesceNeverCancelsTheOtherWaiter) {
  // Regression test for a cancellation/coalescing race: the prefetch
  // worker used to decide "every waiter cancelled, resolve Cancelled"
  // without atomically unpublishing the fetch from the in-flight map, so a
  // GetAsync arriving in that window could coalesce onto a fetch that then
  // resolved Cancelled under it. The invariant now is that a fetch only
  // resolves Cancelled after it is out of the map — a racer either joins a
  // still-live fetch (its waiter count un-abandons it) or misses the map
  // and issues its own read. Either way its Await sees the tile.
  SimDfs dfs(SlowDfs(0.002));
  DfsTileStore store(&dfs);
  store.EnablePrefetch(1);
  ASSERT_TRUE(store.Put("blk", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  ASSERT_TRUE(store.Put("t", TileId{0, 0}, MakeTile(4, 4, 2.0), 0).ok());
  for (int round = 0; round < 100; ++round) {
    // The blocker occupies the single worker so "t"'s fetch is queued
    // while the cancel and the coalescing GetAsync race below.
    TileFuture blocker = store.GetAsync("blk", TileId{0, 0}, 1);
    TileFuture victim = store.GetAsync("t", TileId{0, 0}, 1);
    std::thread canceller([&] { victim.Cancel(); });
    TileFuture racer = store.GetAsync("t", TileId{0, 0}, 1);
    canceller.join();
    auto got = racer.Await();
    ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.status();
    EXPECT_EQ((*got)->At(0, 0), 2.0);
    ASSERT_TRUE(blocker.Await().ok());
  }
}

TEST(DfsPrefetchTest, PrefetchLandsInTileCacheAndSecondReadHits) {
  SimDfs dfs(SlowDfs(0.0));
  DfsTileStore store(&dfs);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);
  MetricsRegistry metrics;
  store.AttachMetrics(&metrics);
  store.EnablePrefetch(2);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 4.0), 0).ok());

  // The background fetch puts the tile in node 1's cache before it
  // resolves the future.
  ASSERT_TRUE(store.GetAsync("m", TileId{0, 0}, 1).Await().ok());
  const int64_t reads_after_prefetch = dfs.TotalStats().reads;
  auto got = store.Get("m", TileId{0, 0}, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 4.0);
  EXPECT_EQ(dfs.TotalStats().reads, reads_after_prefetch)
      << "second read should be served by the cache the prefetch filled";
  // A cache-resident tile turns further async reads into instant hits.
  ASSERT_TRUE(store.GetAsync("m", TileId{0, 0}, 1).Await().ok());
  EXPECT_GE(metrics.Snapshot().CounterOr("prefetch.hit", 0), 1);
}

// ---------------------------------------------------------------------------
// TaskTileReader budget / ordering
// ---------------------------------------------------------------------------

/// Store whose GetAsync hands out unresolved futures the test resolves by
/// hand — the only way to observe the pipeline's in-flight window exactly.
class ManualAsyncStore : public TileStore {
 public:
  Status Put(const std::string& matrix, TileId id,
             std::shared_ptr<const Tile> tile, int) override {
    tiles_[StrCat(matrix, "/", id.row, "_", id.col)] = std::move(tile);
    return Status::OK();
  }
  Result<std::shared_ptr<const Tile>> Get(const std::string& matrix,
                                          TileId id, int) override {
    ++sync_gets;
    auto it = tiles_.find(StrCat(matrix, "/", id.row, "_", id.col));
    if (it == tiles_.end()) return Status::NotFound("no tile");
    return it->second;
  }
  TileFuture GetAsync(const std::string& matrix, TileId id, int) override {
    auto state = std::make_shared<TileFetchState>();
    issued.push_back({StrCat(matrix, "/", id.row, "_", id.col), state});
    return TileFuture::FromState(state);
  }
  Status DeleteMatrix(const std::string&) override { return Status::OK(); }

  void ResolveAll() {
    for (auto& [key, state] : issued) {
      if (state->resolved()) continue;
      auto it = tiles_.find(key);
      ASSERT_NE(it, tiles_.end()) << key;
      state->Resolve(it->second);
    }
  }

  std::map<std::string, std::shared_ptr<const Tile>> tiles_;
  std::vector<std::pair<std::string, std::shared_ptr<TileFetchState>>> issued;
  int sync_gets = 0;
};

TEST(TaskTileReaderTest, WindowRespectsByteBudget) {
  ManualAsyncStore store;
  const int64_t tile_bytes = MakeTile(8, 8, 0.0)->SizeBytes();
  // The window is budgeted in in-memory footprint (what a prefetched tile
  // actually pins), not serialized size.
  const int64_t tile_mem = MakeTile(8, 8, 0.0)->MemoryBytes();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        store.Put("m", TileId{0, i}, MakeTile(8, 8, i), /*writer=*/0).ok());
  }

  // Budget = 2 tiles: hints beyond the window stay pending.
  MemoryBudget ledger(0);  // unlimited
  TaskTileReader reader(&store, /*machine=*/0, 2 * tile_mem, &ledger,
                        kUnlimitedPinBytes);
  for (int i = 0; i < 6; ++i) reader.Hint("m", TileId{0, i}, tile_bytes);
  EXPECT_EQ(store.issued.size(), 2u);
  EXPECT_EQ(reader.in_flight_bytes(), 2 * tile_mem);

  // Consuming the head of the window admits the next pending hint; the
  // resolved tile comes back through the future, not a sync Get.
  store.ResolveAll();
  auto got = reader.Read("m", TileId{0, 0});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 0.0);
  EXPECT_EQ(store.sync_gets, 0);
  EXPECT_EQ(store.issued.size(), 3u) << "window topped back up after Read";

  store.ResolveAll();
  for (int i = 1; i < 6; ++i) {
    auto tile = reader.Read("m", TileId{0, i});
    ASSERT_TRUE(tile.ok()) << tile.status();
    EXPECT_EQ((*tile)->At(0, 0), static_cast<double>(i));
    store.ResolveAll();  // later hints are issued as the window drains
  }
  EXPECT_EQ(store.sync_gets, 0) << "every read was served by a prefetch";
  EXPECT_EQ(reader.in_flight_bytes(), 0);
}

TEST(TaskTileReaderTest, OversizedHintStillGoesOutAlone) {
  ManualAsyncStore store;
  const int64_t tile_bytes = MakeTile(8, 8, 0.0)->SizeBytes();
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 1.0), 0).ok());
  ASSERT_TRUE(store.Put("m", TileId{0, 1}, MakeTile(8, 8, 2.0), 0).ok());
  MemoryBudget ledger(0);  // unlimited
  // Prefetch budget < one tile.
  TaskTileReader reader(&store, 0, tile_bytes / 2, &ledger,
                        kUnlimitedPinBytes);
  reader.Hint("m", TileId{0, 0}, tile_bytes);
  reader.Hint("m", TileId{0, 1}, tile_bytes);
  EXPECT_EQ(store.issued.size(), 1u) << "one in-flight fetch minimum";
  store.ResolveAll();
  ASSERT_TRUE(reader.Read("m", TileId{0, 0}).ok());
  store.ResolveAll();
  ASSERT_TRUE(reader.Read("m", TileId{0, 1}).ok());
  EXPECT_EQ(store.sync_gets, 0);
}

TEST(TaskTileReaderTest, ZeroBudgetFallsBackToSynchronousGets) {
  ManualAsyncStore store;
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 9.0), 0).ok());
  MemoryBudget ledger(0);  // unlimited
  TaskTileReader reader(&store, 0, /*budget_bytes=*/0, &ledger,
                        kUnlimitedPinBytes);
  reader.Hint("m", TileId{0, 0}, 1024);
  EXPECT_TRUE(store.issued.empty());
  TaskIoStats::Current()->Reset();
  auto got = reader.Read("m", TileId{0, 0});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(store.sync_gets, 1);
  EXPECT_EQ(TaskIoStats::Current()->sync_reads, 1);
}

TEST(TaskTileReaderTest, DestructorCancelsUnconsumedPrefetches) {
  ManualAsyncStore store;
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 1.0), 0).ok());
  std::shared_ptr<TileFetchState> state;
  MemoryBudget ledger(0);  // unlimited
  {
    TaskTileReader reader(&store, 0, 1 << 20, &ledger, kUnlimitedPinBytes);
    reader.Hint("m", TileId{0, 0}, 1024);
    ASSERT_EQ(store.issued.size(), 1u);
    state = store.issued[0].second;
    EXPECT_FALSE(state->abandoned());
  }
  EXPECT_TRUE(state->abandoned())
      << "a task that exits without consuming its hints must release them";
}

TEST(TaskTileReaderTest, MemoServesRepeatedReadsOnce) {
  ManualAsyncStore store;
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(8, 8, 3.0), 0).ok());
  MemoryBudget ledger(0);  // unlimited
  TaskTileReader reader(&store, 0, /*budget_bytes=*/0, &ledger,
                        kUnlimitedPinBytes);
  auto first = reader.ReadMemoized("m", TileId{0, 0});
  ASSERT_TRUE(first.ok());
  auto second = reader.ReadMemoized("m", TileId{0, 0});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(store.sync_gets, 1) << "second read must come from the memo";
}

// ---------------------------------------------------------------------------
// End-to-end: outputs must be bit-identical with prefetch on and off, over
// every job type (matmul with split-k + epilogue, sum, ew chain, aggregate,
// transpose) on the real engine.
// ---------------------------------------------------------------------------

struct PipelineOutputs {
  TiledMatrix c{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix ew{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix agg{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix t{"", TileLayout::Square(1, 1, 1)};
};

Status RunPipelinePlan(bool prefetch, uint64_t seed, DfsTileStore* store,
                       PipelineOutputs* out) {
  const int64_t n = 128 + 64 * (seed % 2);  // vary shape across seeds
  const int64_t tile = 64;
  TiledMatrix a{"A", TileLayout::Square(n, n, tile)};
  TiledMatrix b{"B", TileLayout::Square(n, n, tile)};
  TiledMatrix v{"V", TileLayout(1, n, 1, tile)};  // row-vector operand
  TiledMatrix c{"C", TileLayout::Square(n, n, tile)};
  TiledMatrix ew{"EW", TileLayout::Square(n, n, tile)};
  TiledMatrix agg{"AGG", TileLayout(n, 1, tile, 1)};
  TiledMatrix t{"T", TileLayout::Square(n, n, tile)};
  Rng rng(seed);  // identical inputs for both runs
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(a, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(b, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(v, FillKind::kGaussian, 0, &rng, store));

  if (prefetch) store->EnablePrefetch(3);

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngine engine(cluster, RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  // Small budget (3 tiles) so the window actually cycles mid-task.
  exec_options.prefetch_budget_bytes =
      prefetch ? 3 * (16 + tile * tile * 8) : 0;
  Executor executor(store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  // Split-k multiply (partials + sum job) with a broadcast epilogue.
  std::vector<EwStep> epilogue = {
      EwStep::Unary(UnaryOp::kScale, 0.5),
      EwStep::Binary(BinaryOp::kAdd, "V", false, EwStep::Operand::kRowVector)};
  CUMULON_RETURN_IF_ERROR(
      AddMatMul(a, b, c, MatMulParams{1, 1, 1}, epilogue, &plan));
  CUMULON_RETURN_IF_ERROR(AddEwChain(
      c, ew, {EwStep::Unary(UnaryOp::kSigmoid),
              EwStep::Binary(BinaryOp::kMul, "A", false,
                             EwStep::Operand::kFull)},
      &plan, /*tiles_per_task=*/3));
  CUMULON_RETURN_IF_ERROR(AddAggregate(
      ew, agg, AggKind::kRowSums, {EwStep::Unary(UnaryOp::kScale, 1.0 / n)},
      &plan));
  CUMULON_RETURN_IF_ERROR(AddTranspose(ew, t, &plan, /*tiles_per_task=*/3));
  CUMULON_RETURN_IF_ERROR(executor.Run(plan).status());
  out->c = c;
  out->ew = ew;
  out->agg = agg;
  out->t = t;
  return Status::OK();
}

void ExpectBitIdentical(const TiledMatrix& m, DfsTileStore* off,
                        DfsTileStore* on) {
  const TileLayout& L = m.layout;
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto a = off->Get(m.name, TileId{gr, gc}, -1);
      auto b = on->Get(m.name, TileId{gr, gc}, -1);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ((*a)->size(), (*b)->size());
      for (int64_t i = 0; i < (*a)->size(); ++i) {
        ASSERT_EQ((*a)->data()[i], (*b)->data()[i])
            << m.name << " tile (" << gr << "," << gc
            << ") differs at element " << i;
      }
    }
  }
}

class PrefetchPipelineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefetchPipelineFuzzTest, OutputsBitIdenticalPrefetchOnAndOff) {
  const uint64_t seed = GetParam();
  // Small injected read latency makes the on-run genuinely overlap; the
  // off-run pays it synchronously. Identical data either way.
  SimDfs dfs_off(SlowDfs(0.001)), dfs_on(SlowDfs(0.001));
  DfsTileStore store_off(&dfs_off, /*verify_checksums=*/true);
  DfsTileStore store_on(&dfs_on, /*verify_checksums=*/true);

  PipelineOutputs out_off, out_on;
  auto st_off = RunPipelinePlan(false, seed, &store_off, &out_off);
  ASSERT_TRUE(st_off.ok()) << st_off;
  auto st_on = RunPipelinePlan(true, seed, &store_on, &out_on);
  ASSERT_TRUE(st_on.ok()) << st_on;
  ASSERT_TRUE(store_on.prefetch_enabled());

  ExpectBitIdentical(out_off.c, &store_off, &store_on);
  ExpectBitIdentical(out_off.ew, &store_off, &store_on);
  ExpectBitIdentical(out_off.agg, &store_off, &store_on);
  ExpectBitIdentical(out_off.t, &store_off, &store_on);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefetchPipelineFuzzTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace cumulon
