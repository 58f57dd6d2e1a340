#ifndef CUMULON_EXEC_PREFETCH_PIPELINE_H_
#define CUMULON_EXEC_PREFETCH_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

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
/// Out-of-core streaming: the reader is also the task's buffer manager.
/// Every byte it holds — in-flight prefetches, memoized (pinned) operand
/// panels, and scratch reservations taken by the task body — is charged
/// to its node's MemoryBudget ledger, and pinned + in-flight bytes are
/// capped at `pin_budget_bytes`. Because the body hints every read in
/// compute order, the reader knows each tile's remaining uses and manages
/// the pinned set from that known sequence rather than from recency:
///  - a fetched tile is pinned only if a later hinted use remains; a
///    single-use tile streams through unpinned;
///  - a pin is released at its last hinted use (a release, not a spill);
///  - prefetches go only into room no live pin holds — issuing one never
///    spills a pin — and the bytes of a tile about to be pinned are not
///    handed back to the window while it lands;
///  - room for the body's scratch is kept free (the largest scratch
///    reservation seen, at least one max-size hinted tile), so taking
///    scratch does not spill a live panel, and with prefetch on pins
///    leave one max-size tile to the window, so they never starve the
///    double buffer;
///  - when a pin must go, the victim is the one whose next hinted use is
///    furthest away (Belady's MIN over the known sequence); a fetched tile
///    whose next use is further than every pinned one is not pinned at
///    all. Ties — e.g. among tiles never hinted — fall to the least
///    recently used.
/// A tile that was never hinted is pinned on ReadMemoized, as a plain
/// memo. A tile too large to pin beside the headroom and the window floor
/// streams through without spilling anything. A dropped panel is "spilled" (tiles are immutable and remain in
/// the DFS) and transparently re-fetched if touched again. An unbudgeted
/// task gets an unlimited ledger and a pin share of kUnlimitedPinBytes,
/// which never refuse. Compute order is unchanged, so budgeted and
/// unbudgeted runs produce bit-identical results; only residency and
/// re-read traffic differ.
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

  /// Declares an upcoming Read, in the order the task will issue them;
  /// each hint is one use of the tile, consumed by the matching read.
  /// `bytes` is the tile's serialized size; the reader weighs it against
  /// the budget as the aligned in-memory footprint the deserialized tile
  /// will actually pin (Tile::MemoryBytes of the same shape). Duplicate
  /// hints are how reuse is declared — already-fetched or in-flight tiles
  /// are skipped at issue time. Uses are counted even with prefetch off.
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
  /// The set is bounded by the pin share and the ledger and managed from
  /// the hinted uses (class comment); a panel dropped while it still had
  /// a use is re-fetched on the next touch and counted as a spill
  /// re-fetch.
  Result<std::shared_ptr<const Tile>> ReadMemoized(const std::string& matrix,
                                                   TileId id);

  /// Reserves `bytes` of task scratch on the ledger, spilling pinned
  /// panels (furthest next use first) if that is what it takes. The
  /// largest reservation seen is kept free from then on.
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
  /// The hinted uses of one tile, as hint sequence positions.
  struct Uses {
    std::vector<int64_t> at;
    size_t next = 0;  // first use not yet consumed by a read
  };
  using MemoList = std::list<MemoEntry>;

  /// Next-use position of a tile with no hinted use left (or none ever).
  static constexpr int64_t kNoUse = std::numeric_limits<int64_t>::max();

  static std::string Key(const std::string& matrix, TileId id);

  /// Issues pending hints while the budget allows, into room that no pin
  /// and no scratch headroom holds. Never spills.
  void Pump();

  /// Shared Read/ReadMemoized body; `memoize` selects whether a fetched
  /// tile may join the pinned set.
  Result<std::shared_ptr<const Tile>> ReadInternal(const std::string& matrix,
                                                   TileId id, bool memoize);

  /// Position of the tile's next hinted use; kNoUse when none is left or
  /// the tile was never hinted.
  int64_t NextUse(const std::string& key) const;

  /// Inserts a fetched tile into the pinned set, spilling panels whose
  /// next use is further away to fit the pin share / ledger. Leaves the
  /// tile unpinned (a spill when it still has a use) when its own next use
  /// is the furthest or it cannot fit even with the set empty. `charged`
  /// ledger bytes are already held for the tile (its flight's
  /// reservation); they become the pin's or are returned.
  void TryPin(const std::string& key, std::shared_ptr<const Tile> tile,
              int64_t charged);

  /// Whether a tile of `bytes` fits the pin share at all, beside the
  /// window floor and the scratch headroom. When it does not, the reader
  /// streams it without spilling anything.
  bool CanPin(int64_t bytes) const;

  /// The pinned panel whose next use is furthest away (least recently
  /// used among ties); end() when nothing is pinned.
  MemoList::iterator FurthestPin();

  /// Drops pinned panel `it`, returning its bytes to the ledger. `spill`
  /// records the drop as an eviction (a panel with uses left or an
  /// unknown future); a release at the last use is not a spill.
  void Unpin(MemoList::iterator it, bool spill);

  /// Books a tile fetched from the store: a re-fetch if `key` was spilled
  /// before, then pinned (`pin`, with `charged` bytes already on the
  /// ledger for it) or counted as an unpinned read.
  void NoteFetched(const std::string& key,
                   const std::shared_ptr<const Tile>& tile, bool pin,
                   int64_t charged);

  TileStore* store_;
  int machine_;
  int64_t budget_bytes_;
  MemoryBudget* ledger_;       // borrowed node ledger
  int64_t pin_budget_bytes_;   // cap on pinned + in-flight bytes
  int64_t in_flight_bytes_ = 0;
  int64_t pinned_bytes_ = 0;
  /// Pin-share bytes kept free for the body's scratch reservations.
  int64_t scratch_headroom_ = 0;
  /// Pin-share bytes pins leave to the window: one max-size hinted tile
  /// (capped at the window budget; 0 with prefetch off).
  int64_t window_floor_ = 0;
  int64_t hints_ = 0;     // hint sequence position of the next Hint
  Stopwatch task_clock_;  // for spill trace span timestamps
  std::deque<PendingHint> pending_;
  std::unordered_map<std::string, InFlight> in_flight_;
  std::unordered_map<std::string, Uses> uses_;
  /// Pinned panels, most recently used first (the tie-break order).
  MemoList pinned_;
  std::unordered_map<std::string, MemoList::iterator> memo_;
  /// Tiles dropped, or left unpinned, while a use was still ahead; their
  /// next fetch counts as a re-fetch.
  std::unordered_set<std::string> spilled_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_PREFETCH_PIPELINE_H_
