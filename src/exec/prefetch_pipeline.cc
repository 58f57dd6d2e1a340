#include "exec/prefetch_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/task_io_stats.h"
#include "obs/trace.h"

namespace cumulon {

namespace {

/// Budget weight of a hinted tile: the aligned footprint its deserialized
/// payload will occupy (serialized size = 16-byte header + payload).
int64_t HintFootprintBytes(int64_t serialized_bytes) {
  return AlignedFootprintBytes(std::max<int64_t>(serialized_bytes - 16, 0));
}

}  // namespace

TaskTileReader::ScratchReservation&
TaskTileReader::ScratchReservation::operator=(
    ScratchReservation&& other) noexcept {
  if (this != &other) {
    if (bytes_ > 0) ledger_->Release(bytes_);
    ledger_ = std::exchange(other.ledger_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

TaskTileReader::ScratchReservation::~ScratchReservation() {
  if (bytes_ > 0) ledger_->Release(bytes_);
}

TaskTileReader::TaskTileReader(TileStore* store, int machine,
                               int64_t budget_bytes, MemoryBudget* ledger,
                               int64_t pin_budget_bytes)
    : store_(store),
      machine_(machine),
      budget_bytes_(budget_bytes),
      ledger_(ledger),
      pin_budget_bytes_(pin_budget_bytes) {
  CUMULON_CHECK(ledger != nullptr);
}

TaskTileReader::~TaskTileReader() {
  for (auto& [key, flight] : in_flight_) {
    flight.future.Cancel();
    ledger_->Release(flight.bytes);
  }
  for (const MemoEntry& entry : pinned_) ledger_->Release(entry.bytes);
}

std::string TaskTileReader::Key(const std::string& matrix, TileId id) {
  return StrCat(matrix, "/", id.row, "_", id.col);
}

void TaskTileReader::Hint(const std::string& matrix, TileId id,
                          int64_t bytes) {
  std::string key = Key(matrix, id);
  const int64_t footprint = HintFootprintBytes(bytes);
  uses_[key].at.push_back(hints_++);
  // Until the body takes scratch, one max-size hinted tile stands in for
  // it.
  scratch_headroom_ = std::max(scratch_headroom_, footprint);
  if (budget_bytes_ <= 0) return;
  // Pins leave one max-size tile to the window so they never starve the
  // double buffer.
  window_floor_ =
      std::max(window_floor_, std::min(footprint, budget_bytes_));
  pending_.push_back(PendingHint{std::move(key), matrix, id, footprint});
  Pump();
}

int64_t TaskTileReader::NextUse(const std::string& key) const {
  auto it = uses_.find(key);
  if (it == uses_.end() || it->second.next >= it->second.at.size()) {
    return kNoUse;
  }
  return it->second.at[it->second.next];
}

void TaskTileReader::Pump() {
  while (!pending_.empty()) {
    PendingHint& next = pending_.front();
    if (memo_.count(next.key) != 0 || in_flight_.count(next.key) != 0) {
      pending_.pop_front();  // already fetched or fetching
      continue;
    }
    // The budget caps the window, but a single oversized tile must still
    // go out or the pipeline would deadlock on it.
    if (!in_flight_.empty() &&
        in_flight_bytes_ + next.bytes > budget_bytes_) {
      return;
    }
    // The window only takes pin-share room that no pin and no scratch
    // headroom holds, and never spills to get more; an unissuable hint is
    // not a deadlock — Read falls back to a synchronous fetch.
    if (in_flight_bytes_ + pinned_bytes_ + scratch_headroom_ + next.bytes >
            pin_budget_bytes_ ||
        !ledger_->TryAcquire(next.bytes)) {
      return;
    }
    InFlight flight;
    flight.bytes = next.bytes;
    const std::string key = next.key;
    const std::string matrix = next.matrix;
    const TileId id = next.id;
    pending_.pop_front();
    // GetAsync may itself consume a synchronous store (ready future); the
    // bookkeeping is identical either way.
    flight.future = store_->GetAsync(matrix, id, machine_);
    in_flight_bytes_ += flight.bytes;
    in_flight_.emplace(key, std::move(flight));
  }
}

Result<std::shared_ptr<const Tile>> TaskTileReader::Read(
    const std::string& matrix, TileId id) {
  return ReadInternal(matrix, id, /*memoize=*/false);
}

Result<std::shared_ptr<const Tile>> TaskTileReader::ReadMemoized(
    const std::string& matrix, TileId id) {
  return ReadInternal(matrix, id, /*memoize=*/true);
}

Result<std::shared_ptr<const Tile>> TaskTileReader::ReadInternal(
    const std::string& matrix, TileId id, bool memoize) {
  const std::string key = Key(matrix, id);
  // This read consumes the tile's next hinted use; a hinted tile with no
  // use left is dead. A tile never hinted keeps plain memoization.
  bool dead = false;
  if (auto uses = uses_.find(key); uses != uses_.end()) {
    Uses& u = uses->second;
    if (u.next < u.at.size()) ++u.next;
    dead = u.next == u.at.size();
  }
  if (auto memo_it = memo_.find(key); memo_it != memo_.end()) {
    std::shared_ptr<const Tile> tile = memo_it->second->tile;
    if (dead) {
      Unpin(memo_it->second, /*spill=*/false);  // last use: release
      Pump();
    } else {
      pinned_.splice(pinned_.begin(), pinned_, memo_it->second);  // touch
    }
    return tile;
  }
  const bool pin = memoize && !dead;
  Pump();
  auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    TileFuture future = std::move(it->second.future);
    const int64_t flight_bytes = it->second.bytes;
    in_flight_.erase(it);
    in_flight_bytes_ -= flight_bytes;
    // A tile about to be pinned keeps its flight's reservation and hands
    // it to the pin; while it lands its bytes count as pinned, so the
    // refill below cannot take the room the pin needs. Any other tile's
    // charge goes with its window bytes; the caller's use of it is covered
    // by the task's scratch reservation.
    const bool keep = pin && CanPin(flight_bytes);
    if (keep) {
      pinned_bytes_ += flight_bytes;
    } else {
      ledger_->Release(flight_bytes);
    }
    // Top the window back up before (possibly) blocking on this tile, so
    // later reads keep downloading while this one waits.
    Pump();
    auto result = future.Await();
    if (keep) pinned_bytes_ -= flight_bytes;
    if (!result.ok()) {
      if (keep) ledger_->Release(flight_bytes);
      return result;
    }
    NoteFetched(key, result.value(), pin, keep ? flight_bytes : 0);
    if (keep) Pump();  // a pin that did not take leaves room behind
    return result;
  }
  // Never hinted (or hint still pending past the budget): fetch on the
  // task thread. Drop the pending hint this read serves so the window
  // does not waste budget re-fetching it later.
  for (auto pending_it = pending_.begin(); pending_it != pending_.end();
       ++pending_it) {
    if (pending_it->key == key) {
      pending_.erase(pending_it);
      break;
    }
  }
  Stopwatch blocked;
  auto result = store_->Get(matrix, id, machine_);
  TaskIoStats* io = TaskIoStats::Current();
  io->sync_read_seconds += blocked.ElapsedSeconds();
  ++io->sync_reads;
  if (result.ok()) NoteFetched(key, result.value(), pin, 0);
  return result;
}

void TaskTileReader::NoteFetched(const std::string& key,
                                 const std::shared_ptr<const Tile>& tile,
                                 bool pin, int64_t charged) {
  const int64_t bytes = tile->MemoryBytes();
  if (spilled_.erase(key) > 0) ledger_->NoteRefetch(bytes);
  if (pin) {
    TryPin(key, tile, charged);
  } else {
    ledger_->NoteUnpinnedRead(bytes);
  }
}

void TaskTileReader::TryPin(const std::string& key,
                            std::shared_ptr<const Tile> tile,
                            int64_t charged) {
  const int64_t bytes = tile->MemoryBytes();
  // The charge becomes the pin's: handing it back first would let another
  // task on the node take the bytes in between.
  if (charged > bytes) {
    ledger_->Release(charged - bytes);
    charged = bytes;
  }
  const int64_t next_use = NextUse(key);
  // Belady's MIN: room is made by spilling pins whose next use is no
  // nearer than this tile's; if this tile's own is the furthest, it is
  // the one that goes.
  auto spill_one = [&] {
    auto victim = FurthestPin();
    if (victim == pinned_.end() || NextUse(victim->key) < next_use) {
      return false;
    }
    Unpin(victim, /*spill=*/true);
    return true;
  };
  bool fits = CanPin(bytes);
  while (fits && pinned_bytes_ + std::max(in_flight_bytes_, window_floor_) +
                         scratch_headroom_ + bytes >
                     pin_budget_bytes_) {
    fits = spill_one();
  }
  while (fits && !ledger_->TryAcquire(bytes - charged)) fits = spill_one();
  if (!fits) {
    ledger_->Release(charged);
    ledger_->NoteUnpinnedRead(bytes);
    // Dropped with a use still ahead: that use re-fetches it.
    if (next_use != kNoUse) spilled_.insert(key);
    return;
  }
  pinned_bytes_ += bytes;
  pinned_.push_front(MemoEntry{key, std::move(tile), bytes});
  memo_[key] = pinned_.begin();
}

bool TaskTileReader::CanPin(int64_t bytes) const {
  return bytes + window_floor_ + scratch_headroom_ <= pin_budget_bytes_;
}

TaskTileReader::MemoList::iterator TaskTileReader::FurthestPin() {
  auto victim = pinned_.end();
  int64_t victim_use = -1;
  // Walk from the least recently used end, so it wins ties.
  for (auto it = pinned_.end(); it != pinned_.begin();) {
    --it;
    const int64_t use = NextUse(it->key);
    if (use > victim_use) {
      victim = it;
      victim_use = use;
    }
  }
  return victim;
}

void TaskTileReader::Unpin(MemoList::iterator it, bool spill) {
  pinned_bytes_ -= it->bytes;
  ledger_->Release(it->bytes);
  if (spill) {
    ledger_->NoteEviction(it->bytes);
    spilled_.insert(it->key);
    if (Tracer* tracer = GlobalTracer()) {
      TraceSpan span;
      span.name = StrCat("spill ", it->key);
      span.category = "spill";
      span.parent_id = -1;  // instant marker, not nested under a job span
      span.machine = machine_;
      span.start_seconds =
          tracer->time_offset() + task_clock_.ElapsedSeconds();
      span.duration_seconds = 0.0;
      span.args = {{"bytes", static_cast<double>(it->bytes)}};
      tracer->AddSpan(std::move(span));
    }
  }
  memo_.erase(it->key);
  pinned_.erase(it);
}

TaskTileReader::ScratchReservation TaskTileReader::PinScratch(
    int64_t bytes) {
  if (bytes <= 0) return ScratchReservation();
  scratch_headroom_ = std::max(scratch_headroom_, bytes);
  while (!ledger_->TryAcquire(bytes)) {
    auto victim = FurthestPin();
    if (victim == pinned_.end()) return ScratchReservation();
    Unpin(victim, /*spill=*/true);
  }
  return ScratchReservation(ledger_, bytes);
}

}  // namespace cumulon
