// The out-of-core memory ledger: hard-cap TryAcquire semantics, spill
// accounting, the per-node group, and the budgeted TaskTileReader's
// pinned-panel window (evict, re-fetch, unpinned fallback, scratch
// reservations, hint-driven pinning).

#include <memory>

#include <gtest/gtest.h>

#include "exec/memory_budget.h"
#include "exec/prefetch_pipeline.h"
#include "matrix/tile_store.h"
#include "matrix/tile_ops.h"

namespace cumulon {
namespace {

TEST(MemoryBudgetTest, TryAcquireNeverExceedsBudget) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryAcquire(60));
  EXPECT_TRUE(budget.TryAcquire(40));
  EXPECT_EQ(budget.used_bytes(), 100);
  EXPECT_FALSE(budget.TryAcquire(1)) << "the cap is hard";
  EXPECT_EQ(budget.used_bytes(), 100) << "failed acquire must not charge";
  budget.Release(50);
  EXPECT_TRUE(budget.TryAcquire(50));
  EXPECT_EQ(budget.counters().acquire_failures, 1);
}

TEST(MemoryBudgetTest, ZeroOrNegativeBudgetIsUnlimited) {
  MemoryBudget unlimited(0);
  EXPECT_TRUE(unlimited.TryAcquire(1LL << 40));
  EXPECT_EQ(unlimited.used_bytes(), 1LL << 40);
  MemoryBudget negative(-5);
  EXPECT_TRUE(negative.TryAcquire(1LL << 40));
}

TEST(MemoryBudgetTest, PeakTracksHighWaterMark) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryAcquire(700));
  budget.Release(500);
  EXPECT_TRUE(budget.TryAcquire(100));
  EXPECT_EQ(budget.used_bytes(), 300);
  EXPECT_EQ(budget.peak_bytes(), 700);
}

TEST(MemoryBudgetTest, ReleaseClampsAtZero) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryAcquire(10));
  budget.Release(50);  // defensive: over-release must not go negative
  EXPECT_EQ(budget.used_bytes(), 0);
}

TEST(MemoryBudgetTest, NegativeAcquireIsRejected) {
  MemoryBudget budget(100);
  EXPECT_FALSE(budget.TryAcquire(-1));
  EXPECT_EQ(budget.used_bytes(), 0);
}

TEST(MemoryBudgetTest, SpillCountersAccumulate) {
  MemoryBudget budget(100);
  budget.NoteEviction(40);
  budget.NoteEviction(60);
  budget.NoteRefetch(40);
  budget.NoteUnpinnedRead(12);
  const MemoryBudget::Counters c = budget.counters();
  EXPECT_EQ(c.evictions, 2);
  EXPECT_EQ(c.evicted_bytes, 100);
  EXPECT_EQ(c.refetches, 1);
  EXPECT_EQ(c.refetch_bytes, 40);
  EXPECT_EQ(c.unpinned_reads, 1);
}

TEST(MemoryBudgetGroupTest, NodesAreIndependentAndTotalsFold) {
  MemoryBudgetGroup group(2, 100);
  EXPECT_EQ(group.num_nodes(), 2);
  EXPECT_EQ(group.budget_bytes_per_node(), 100);
  EXPECT_TRUE(group.node(0)->TryAcquire(100));
  EXPECT_FALSE(group.node(0)->TryAcquire(1));
  EXPECT_TRUE(group.node(1)->TryAcquire(30)) << "node 1 has its own ledger";
  group.node(1)->NoteEviction(10);
  EXPECT_EQ(group.TotalCounters().evictions, 1);
  EXPECT_EQ(group.MaxPeakBytes(), 100);
  // Machine indices wrap defensively.
  EXPECT_EQ(group.node(2), group.node(0));
}

// ---------------------------------------------------------------------------
// Budgeted TaskTileReader: the pinned-panel window. Tiles read without a
// hint are plain memos, evicted least recently used first.
// ---------------------------------------------------------------------------

std::shared_ptr<const Tile> MakeTile(int64_t dim, double value) {
  auto tile = std::make_shared<Tile>(dim, dim);
  FillTile(tile.get(), value);
  return tile;
}

class BudgetedReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          store_.Put("m", TileId{0, i}, MakeTile(8, 1.0 + i), 0).ok());
    }
    tile_mem_ = MakeTile(8, 0.0)->MemoryBytes();
  }

  InMemoryTileStore store_;
  int64_t tile_mem_ = 0;
};

TEST_F(BudgetedReaderTest, PinsUpToBudgetThenSpillsLru) {
  MemoryBudget ledger(100 * tile_mem_);  // node ledger is not the binding cap
  TaskTileReader reader(&store_, 0, /*budget_bytes=*/0, &ledger,
                        /*pin_budget_bytes=*/2 * tile_mem_);
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 1}).ok());
  EXPECT_EQ(reader.pinned_bytes(), 2 * tile_mem_);
  EXPECT_EQ(ledger.counters().evictions, 0);

  // A third pin exceeds the pin budget: the least-recently-used panel
  // (tile 0) spills.
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 2}).ok());
  EXPECT_EQ(reader.pinned_bytes(), 2 * tile_mem_);
  EXPECT_EQ(ledger.counters().evictions, 1);
  EXPECT_EQ(ledger.counters().evicted_bytes, tile_mem_);

  // Touching the spilled panel again re-fetches it (and spills tile 1).
  auto again = reader.ReadMemoized("m", TileId{0, 0});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->At(0, 0), 1.0);
  EXPECT_EQ(ledger.counters().refetches, 1);
  EXPECT_EQ(ledger.counters().refetch_bytes, tile_mem_);
}

TEST_F(BudgetedReaderTest, LruTouchKeepsHotPanelResident) {
  MemoryBudget ledger(100 * tile_mem_);
  TaskTileReader reader(&store_, 0, 0, &ledger, 2 * tile_mem_);
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 1}).ok());
  // Re-touch tile 0 so tile 1 is now least recently used...
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 2}).ok());
  // ...then tile 0 must still be resident: no re-fetch on this touch.
  const int64_t refetches_before = ledger.counters().refetches;
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  EXPECT_EQ(ledger.counters().refetches, refetches_before);
}

TEST_F(BudgetedReaderTest, ZeroPinBudgetStreamsUnpinned) {
  MemoryBudget ledger(100 * tile_mem_);
  TaskTileReader reader(&store_, 0, 0, &ledger, /*pin_budget_bytes=*/0);
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  EXPECT_EQ(reader.pinned_bytes(), 0);
  EXPECT_GE(ledger.counters().unpinned_reads, 2)
      << "every read streamed through without pinning";
}

TEST_F(BudgetedReaderTest, LedgerCapBindsWhenTighterThanPinBudget) {
  // Ledger already mostly full: only one tile fits even though the pin
  // budget would allow two.
  MemoryBudget ledger(2 * tile_mem_ - 1);
  TaskTileReader reader(&store_, 0, 0, &ledger, 2 * tile_mem_);
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
  ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 1}).ok());
  EXPECT_EQ(reader.pinned_bytes(), tile_mem_);
  EXPECT_LE(ledger.used_bytes(), ledger.budget_bytes());
  EXPECT_GE(ledger.counters().evictions, 1);
}

TEST_F(BudgetedReaderTest, ScratchSpillsPinsAndReleasesOnDestruct) {
  MemoryBudget ledger(2 * tile_mem_);
  {
    TaskTileReader reader(&store_, 0, 0, &ledger, 2 * tile_mem_);
    ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 0}).ok());
    ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, 1}).ok());
    {
      const TaskTileReader::ScratchReservation scratch =
          reader.PinScratch(tile_mem_);
      EXPECT_EQ(scratch.bytes(), tile_mem_)
          << "scratch must fit by spilling a pinned panel";
      EXPECT_GE(ledger.counters().evictions, 1);
      EXPECT_LE(ledger.used_bytes(), ledger.budget_bytes());
    }
    EXPECT_EQ(ledger.used_bytes(), reader.pinned_bytes())
        << "scratch released on scope exit";
  }
  EXPECT_EQ(ledger.used_bytes(), 0) << "reader released every charged byte";
}

TEST_F(BudgetedReaderTest, UnbudgetedReaderPinsWithoutLimit) {
  MemoryBudget ledger(0);  // an unbudgeted run's unlimited ledger
  TaskTileReader reader(&store_, 0, /*budget_bytes=*/0, &ledger,
                        kUnlimitedPinBytes);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(reader.ReadMemoized("m", TileId{0, i}).ok());
  }
  auto first = reader.ReadMemoized("m", TileId{0, 0});
  auto second = reader.ReadMemoized("m", TileId{0, 0});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "classic unbudgeted memoization still serves one shared copy";
  EXPECT_EQ(ledger.counters().evictions, 0);
  const int64_t pinned = ledger.used_bytes();
  {
    const TaskTileReader::ScratchReservation scratch =
        reader.PinScratch(1 << 20);
    EXPECT_EQ(scratch.bytes(), 1 << 20)
        << "scratch is charged to the unlimited ledger";
    EXPECT_EQ(ledger.used_bytes(), pinned + (1 << 20));
  }
  EXPECT_EQ(ledger.used_bytes(), pinned) << "scratch returned at scope exit";
}

}  // namespace
}  // namespace cumulon
