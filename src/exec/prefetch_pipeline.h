#ifndef CUMULON_EXEC_PREFETCH_PIPELINE_H_
#define CUMULON_EXEC_PREFETCH_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/result.h"
#include "common/stopwatch.h"
#include "exec/memory_budget.h"
#include "matrix/tile_store.h"

namespace cumulon {

/// Per-task double-buffered tile reader: the task body hints its reads in
/// compute order up front, and the reader keeps a byte-budgeted window of
/// them in flight through TileStore::GetAsync while the task computes —
/// split k+1's tiles download while split k multiplies. Owned by exactly
/// one task closure and only touched from its thread, so it needs no
/// locks; all cross-thread coordination lives in the store's futures and
/// the (internally synchronized) node memory ledger.
///
/// With a budget of 0 (prefetch off) or a store without an async path, the
/// reader degrades to plain synchronous Gets, making it safe to use
/// unconditionally in every job body: results are bit-identical either
/// way, only the waiting moves.
///
/// Out-of-core streaming: the reader is also the task's panel-streaming
/// window. Every byte it holds — in-flight prefetches, memoized (pinned)
/// operand panels, and scratch reservations taken by the task body — is
/// charged to its node's MemoryBudget ledger, and the pinned set is an LRU
/// capped at `pin_budget_bytes`: under pressure the least-recently-used
/// panel is dropped ("spilled" — tiles are immutable and remain in the
/// DFS, so spilling is releasing the pin) and transparently re-fetched if
/// touched again. An unbudgeted task gets an unlimited ledger and a pin
/// share of kUnlimitedPinBytes, which never refuse, so it pins every panel
/// it memoizes. Compute order is unchanged, so budgeted and unbudgeted
/// runs produce bit-identical results; only residency and re-read traffic
/// differ.
class TaskTileReader {
 public:
  /// RAII ledger reservation for task-local scratch (accumulator tiles and
  /// the transient operand the body is currently consuming). Releases on
  /// destruction. Empty (no-op) when the ledger could not cover the bytes
  /// even after spilling every pinned panel — execution proceeds either
  /// way; the failed acquisition is counted on the ledger.
  class ScratchReservation {
   public:
    ScratchReservation() = default;
    ScratchReservation(ScratchReservation&& other) noexcept
        : ledger_(std::exchange(other.ledger_, nullptr)),
          bytes_(std::exchange(other.bytes_, 0)) {}
    ScratchReservation& operator=(ScratchReservation&& other) noexcept;
    ~ScratchReservation();

    ScratchReservation(const ScratchReservation&) = delete;
    ScratchReservation& operator=(const ScratchReservation&) = delete;

    int64_t bytes() const { return bytes_; }

   private:
    friend class TaskTileReader;
    ScratchReservation(MemoryBudget* ledger, int64_t bytes)
        : ledger_(ledger), bytes_(bytes) {}

    MemoryBudget* ledger_ = nullptr;
    int64_t bytes_ = 0;
  };

  /// `store` is borrowed and must outlive the reader. `budget_bytes` caps
  /// the in-memory footprint of in-flight prefetches; at least one hint is
  /// kept in flight even when it alone exceeds the budget (<= 0 disables
  /// prefetching entirely). `ledger` (borrowed, required) is the node
  /// memory ledger all held bytes are charged to; `pin_budget_bytes` caps
  /// this task's pinned panels + in-flight window (0 = nothing may be
  /// pinned; kUnlimitedPinBytes = no cap).
  TaskTileReader(TileStore* store, int machine, int64_t budget_bytes,
                 MemoryBudget* ledger, int64_t pin_budget_bytes);

  /// Cancels any in-flight fetches the task never consumed and returns
  /// every charged byte to the ledger.
  ~TaskTileReader();

  TaskTileReader(const TaskTileReader&) = delete;
  TaskTileReader& operator=(const TaskTileReader&) = delete;

  /// Declares an upcoming Read, in the order the task will issue them.
  /// `bytes` is the tile's serialized size; the reader weighs it against
  /// the budget as the aligned in-memory footprint the deserialized tile
  /// will actually pin (Tile::MemoryBytes of the same shape). Duplicate
  /// hints are fine — already-fetched or in-flight tiles are skipped at
  /// issue time.
  void Hint(const std::string& matrix, TileId id, int64_t bytes);

  /// Fetches a tile: consumes the matching in-flight prefetch when one
  /// exists (awaiting it if needed), falls back to a synchronous Get
  /// otherwise, and tops the prefetch window back up either way. The
  /// returned tile is not pinned; its transient residency is covered by
  /// the task's scratch reservation.
  Result<std::shared_ptr<const Tile>> Read(const std::string& matrix,
                                           TileId id);

  /// Read through the pinned-panel set: repeated reads of one tile
  /// (broadcast epilogue operands, A/B panels reused across a task's
  /// output block) return the pinned copy without touching the store.
  /// The set is an LRU bounded by the pin share and the ledger; an evicted
  /// panel is re-fetched on the next touch and counted as a spill re-fetch.
  Result<std::shared_ptr<const Tile>> ReadMemoized(const std::string& matrix,
                                                   TileId id);

  /// Reserves `bytes` of task scratch on the ledger, spilling pinned
  /// panels if that is what it takes.
  ScratchReservation PinScratch(int64_t bytes);

  /// In-flight prefetched bytes right now (test hook).
  int64_t in_flight_bytes() const { return in_flight_bytes_; }
  /// Pinned (memoized) panel bytes right now (test hook).
  int64_t pinned_bytes() const { return pinned_bytes_; }

 private:
  struct PendingHint {
    std::string key;
    std::string matrix;
    TileId id;
    int64_t bytes = 0;
  };
  struct InFlight {
    TileFuture future;
    int64_t bytes = 0;
  };
  struct MemoEntry {
    std::string key;
    std::shared_ptr<const Tile> tile;
    int64_t bytes = 0;
  };

  static std::string Key(const std::string& matrix, TileId id);

  /// Issues pending hints while the budget (and ledger) allows.
  void Pump();

  /// Shared Read/ReadMemoized body; `pin` selects whether a fetched tile
  /// joins the pinned set.
  Result<std::shared_ptr<const Tile>> ReadInternal(const std::string& matrix,
                                                   TileId id, bool pin);

  /// Inserts a fetched tile into the pinned LRU, spilling older panels to
  /// fit the pin budget / ledger. Returns false (tile stays unpinned) when
  /// it cannot fit even with the set empty.
  bool TryPin(const std::string& key, std::shared_ptr<const Tile> tile);

  /// Drops the least-recently-used pinned panel, returning its bytes to
  /// the ledger and recording the spill.
  void EvictLru();

  /// Books a tile fetched from the store: a re-fetch if `key` was spilled
  /// before, then pinned (`pin`) or counted as an unpinned read.
  void NoteFetched(const std::string& key,
                   const std::shared_ptr<const Tile>& tile, bool pin);

  TileStore* store_;
  int machine_;
  int64_t budget_bytes_;
  MemoryBudget* ledger_;       // borrowed node ledger
  int64_t pin_budget_bytes_;   // cap on pinned + in-flight bytes
  int64_t in_flight_bytes_ = 0;
  int64_t pinned_bytes_ = 0;
  Stopwatch task_clock_;  // for spill trace span timestamps
  std::deque<PendingHint> pending_;
  std::unordered_map<std::string, InFlight> in_flight_;
  /// Pinned panels, most recently used first.
  std::list<MemoEntry> lru_;
  std::unordered_map<std::string, std::list<MemoEntry>::iterator> memo_;
  /// Panels spilled at least once; a later fetch counts as a re-fetch.
  std::unordered_set<std::string> spilled_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_PREFETCH_PIPELINE_H_
