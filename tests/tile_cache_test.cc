#include "dfs/tile_cache.h"

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

std::shared_ptr<const Tile> MakeTile(int64_t rows, int64_t cols,
                                     double value) {
  auto tile = std::make_shared<Tile>(rows, cols);
  FillTile(tile.get(), value);
  return tile;
}

// 4x4 doubles + header = 144 serialized bytes; the unit of all capacity
// math below. The in-memory footprint is smaller here (128 bytes: the
// 16-byte header is not materialized and the payload rounds up to whole
// cache lines), and that is what resident_bytes and eviction budget on.
const int64_t kTileBytes = MakeTile(4, 4, 0.0)->SizeBytes();
const int64_t kTileMemoryBytes = MakeTile(4, 4, 0.0)->MemoryBytes();

TEST(TileCacheTest, MissThenHit) {
  TileCache cache(10 * kTileBytes);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeTile(4, 4, 1.0));
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->At(0, 0), 1.0);
  const TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.resident_tiles, 1);
  EXPECT_EQ(stats.resident_bytes, kTileMemoryBytes);
  EXPECT_EQ(stats.hit_bytes, kTileBytes);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(TileCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Room for exactly two tiles.
  TileCache cache(2 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  cache.Put("c", MakeTile(4, 4, 3.0));  // evicts "a", the LRU entry
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().resident_tiles, 2);
}

TEST(TileCacheTest, DefaultCacheSpendsItsWholeBudget) {
  // One LRU per node spends the whole budget: a cache with room for two
  // tiles keeps both, whatever their keys.
  TileCache cache(2 * kTileMemoryBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.Stats().resident_tiles, 2);
  EXPECT_EQ(cache.Stats().resident_bytes, 2 * kTileMemoryBytes);
  EXPECT_EQ(cache.Stats().evictions, 0);
}

TEST(TileCacheTest, GetPromotesEntryToMostRecentlyUsed) {
  TileCache cache(2 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now the LRU entry
  cache.Put("c", MakeTile(4, 4, 3.0));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(TileCacheTest, OversizedTileIsNotCached) {
  TileCache cache(kTileBytes);
  cache.Put("big", MakeTile(64, 64, 1.0));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.Stats().resident_tiles, 0);
  EXPECT_EQ(cache.Stats().insertions, 0);
}

TEST(TileCacheTest, NonPositiveCapacityDisablesCaching) {
  TileCache cache(0);
  cache.Put("a", MakeTile(4, 4, 1.0));
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(TileCacheTest, PutReplacesExistingEntry) {
  TileCache cache(4 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("a", MakeTile(4, 4, 9.0));
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->At(0, 0), 9.0);
  EXPECT_EQ(cache.Stats().resident_tiles, 1);
}

TEST(TileCacheTest, InvalidateDropsKeyAndPrefixDropsSubtree) {
  TileCache cache(16 * kTileBytes);
  cache.Put("/matrix/A/t_0_0", MakeTile(4, 4, 1.0));
  cache.Put("/matrix/A/t_0_1", MakeTile(4, 4, 2.0));
  cache.Put("/matrix/AB/t_0_0", MakeTile(4, 4, 3.0));
  cache.Invalidate("/matrix/A/t_0_0");
  EXPECT_EQ(cache.Get("/matrix/A/t_0_0"), nullptr);
  EXPECT_NE(cache.Get("/matrix/A/t_0_1"), nullptr);
  EXPECT_EQ(cache.InvalidatePrefix("/matrix/A/"), 1);
  EXPECT_EQ(cache.Get("/matrix/A/t_0_1"), nullptr);
  // Prefix match is exact: /matrix/AB is not under /matrix/A/.
  EXPECT_NE(cache.Get("/matrix/AB/t_0_0"), nullptr);
}

TEST(TileCacheTest, ConcurrentMixedOperationsStayConsistent) {
  // Small capacity forces constant eviction while 8 threads hammer
  // overlapping keys. Every hit must return the exact tile stored under
  // that key (value = key index), never a torn or mismatched payload.
  TileCache cache(8 * kTileBytes);
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key_index = (i * 7 + t * 13) % kKeys;
        const std::string key = StrCat("k", key_index);
        if (auto hit = cache.Get(key)) {
          ASSERT_EQ(hit->At(0, 0), static_cast<double>(key_index))
              << "cache returned another key's tile";
        } else {
          cache.Put(key, MakeTile(4, 4, static_cast<double>(key_index)));
        }
        if (i % 97 == 0) cache.Invalidate(key);
        if (i % 501 == 0) cache.InvalidatePrefix("k1");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups(), kThreads * kOpsPerThread);
  EXPECT_LE(stats.resident_bytes, cache.capacity_bytes());
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.evictions, 0);
}

TEST(TileCacheGroupTest, NodesAreIsolatedAndStatsSum) {
  TileCacheGroup group(/*num_nodes=*/3, /*bytes_per_node=*/16 * kTileBytes);
  group.node(0)->Put("a", MakeTile(4, 4, 1.0));
  EXPECT_NE(group.node(0)->Get("a"), nullptr);
  EXPECT_EQ(group.node(1)->Get("a"), nullptr);  // per-node, not shared
  EXPECT_EQ(group.node(-1), nullptr);           // client reads: no cache
  EXPECT_EQ(group.node(3), nullptr);
  const TileCacheStats total = group.TotalStats();
  EXPECT_EQ(total.hits, 1);
  EXPECT_EQ(total.misses, 1);
  group.InvalidateAll("a");
  EXPECT_EQ(group.node(0)->Get("a"), nullptr);
}

TEST(TileCacheTest, BudgetLeavesRoomAfterSlotWorkingSets) {
  // 8 GB machine, 2 slots, 80% of each slot's share reserved for tasks:
  // cache gets the remaining 20% = 1.6 GB.
  const double memory = 8.0 * (1 << 30);
  const int64_t budget = NodeTileCacheBudget(memory, 2, 0.8);
  EXPECT_EQ(budget, static_cast<int64_t>(memory * 0.2));
  // Fully reserved memory leaves no cache.
  EXPECT_EQ(NodeTileCacheBudget(memory, 2, 1.0), 0);
}

// ---------------------------------------------------------------------------
// DfsTileStore integration
// ---------------------------------------------------------------------------

DfsOptions SmallDfs() {
  DfsOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  return o;
}

TEST(DfsTileStoreCacheTest, SecondReadServedFromCacheSkipsDfs) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 5.0), 0).ok());
  // A different node misses once, then hits; the DFS sees exactly one read.
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 1).ok());
  const int64_t dfs_reads_after_first = dfs.TotalStats().reads;
  auto again = store.Get("m", TileId{0, 0}, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->At(0, 0), 5.0);
  EXPECT_EQ(dfs.TotalStats().reads, dfs_reads_after_first);
  // Writer node 0 was seeded at Put time, so its first read already hits.
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 0).ok());
  EXPECT_EQ(dfs.TotalStats().reads, dfs_reads_after_first);
  EXPECT_GE(caches.TotalStats().hits, 2);
}

TEST(DfsTileStoreCacheTest, OverwriteInvalidatesEveryNodesCachedCopy) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  for (int node = 0; node < 4; ++node) {
    ASSERT_TRUE(store.Get("m", TileId{0, 0}, node).ok());
  }
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 2.0), 1).ok());
  for (int node = 0; node < 4; ++node) {
    auto got = store.Get("m", TileId{0, 0}, node);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->At(0, 0), 2.0) << "node " << node << " served stale data";
  }
}

TEST(DfsTileStoreCacheTest, DeleteMatrixDropsCachedTiles) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 2).ok());
  ASSERT_TRUE(store.DeleteMatrix("m").ok());
  EXPECT_FALSE(store.Get("m", TileId{0, 0}, 2).ok());
  EXPECT_FALSE(store.Get("m", TileId{0, 0}, 0).ok());
}

TEST(DfsTileStoreCacheTest, ChecksumStillCatchesCorruptionOnMiss) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  // Corrupt the block behind the store's back, then drop the cached copies
  // so the next read must go to the DFS: verification still fires.
  auto corrupted = MakeTile(4, 4, 666.0);
  ASSERT_TRUE(dfs.Write(DfsTileStore::TilePath("m", TileId{0, 0}),
                        corrupted->SizeBytes(), 0, corrupted).ok());
  caches.Clear();
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a real multiply must be bit-identical with and without the
// cache, under concurrent task slots re-reading shared input tiles.
// ---------------------------------------------------------------------------

Result<PlanStats> RunRealMultiply(bool enable_cache, TiledMatrix* c_out,
                                  SimDfs* dfs, DfsTileStore* store) {
  TiledMatrix a{"A", TileLayout::Square(512, 512, 128)};
  TiledMatrix b{"B", TileLayout::Square(512, 512, 128)};
  TiledMatrix c{"C", TileLayout::Square(512, 512, 128)};
  Rng rng(42);  // same seed both runs -> identical inputs
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(a, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(b, FillKind::kGaussian, 0, &rng, store));

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = enable_cache;
  engine_options.cache_bytes_per_node = enable_cache ? (64 << 20) : 0;
  RealEngine engine(cluster, engine_options);
  store->AttachCaches(engine.tile_caches());

  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  Executor executor(store, &engine, &cost, exec_options);
  PhysicalPlan plan;
  CUMULON_RETURN_IF_ERROR(AddMatMul(a, b, c, MatMulParams{1, 1, 0}, {}, &plan));
  auto stats = executor.Run(plan);
  store->AttachCaches(nullptr);
  *c_out = c;
  (void)dfs;
  return stats;
}

TEST(ExecCacheTest, RealMultiplyBitIdenticalWithAndWithoutCache) {
  SimDfs dfs_off(SmallDfs()), dfs_on(SmallDfs());
  DfsTileStore store_off(&dfs_off, /*verify_checksums=*/true);
  DfsTileStore store_on(&dfs_on, /*verify_checksums=*/true);

  TiledMatrix c_off{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix c_on = c_off;
  auto stats_off = RunRealMultiply(false, &c_off, &dfs_off, &store_off);
  ASSERT_TRUE(stats_off.ok()) << stats_off.status();
  auto stats_on = RunRealMultiply(true, &c_on, &dfs_on, &store_on);
  ASSERT_TRUE(stats_on.ok()) << stats_on.status();

  EXPECT_EQ(stats_off->cache_hits, 0);
  EXPECT_GT(stats_on->cache_hits, 0) << "cache never hit; test is vacuous";

  // Bit-identical outputs, tile by tile.
  const TileLayout& L = c_off.layout;
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto off = store_off.Get(c_off.name, TileId{gr, gc}, -1);
      auto on = store_on.Get(c_on.name, TileId{gr, gc}, -1);
      ASSERT_TRUE(off.ok()) << off.status();
      ASSERT_TRUE(on.ok()) << on.status();
      ASSERT_EQ((*off)->size(), (*on)->size());
      for (int64_t i = 0; i < (*off)->size(); ++i) {
        ASSERT_EQ((*off)->data()[i], (*on)->data()[i])
            << "tile (" << gr << "," << gc << ") differs at element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cumulon
