#ifndef CUMULON_DFS_TILE_CACHE_H_
#define CUMULON_DFS_TILE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "matrix/tile.h"

namespace cumulon {

/// Aggregate counters of one cache (or a group of them). hit_bytes counts
/// serialized tile sizes (Tile::SizeBytes), the same unit the DFS accounts
/// in, so hit bytes are directly comparable to DfsStats reads.
/// resident_bytes counts the allocator's actual in-memory footprint
/// (Tile::MemoryBytes — cache-line aligned and padded), which is what the
/// capacity budget is spent against.
struct TileCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  int64_t hit_bytes = 0;
  int64_t resident_bytes = 0;
  int64_t resident_tiles = 0;

  int64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const int64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A byte-budgeted LRU cache of immutable tiles, keyed by their DFS path.
/// One instance represents the page-cache / reader-buffer memory of a
/// single cluster node, so tasks placed on the same machine reuse input
/// tiles instead of re-fetching (and re-checksumming) them from the DFS.
///
/// One LRU list under one mutex spends the whole byte budget; a tile
/// larger than the budget is not cached. Cached tiles are shared_ptrs to
/// the same immutable payloads the DFS holds — the cache adds bookkeeping,
/// not copies.
///
/// Thread-safe.
class TileCache {
 public:
  /// `capacity_bytes` <= 0 disables caching (every Get misses).
  explicit TileCache(int64_t capacity_bytes);

  /// Returns the cached tile and promotes it to most-recently-used, or
  /// nullptr on a miss.
  std::shared_ptr<const Tile> Get(const std::string& key);

  /// Inserts (or replaces) `tile` under `key`, evicting least-recently-used
  /// entries until it fits. No-op for null tiles and tiles larger than the
  /// whole budget.
  void Put(const std::string& key, std::shared_ptr<const Tile> tile);

  /// Drops `key` if present (tile overwritten or deleted in the DFS).
  void Invalidate(const std::string& key);

  /// Drops every entry whose key starts with `prefix`; returns the count.
  int64_t InvalidatePrefix(const std::string& prefix);

  void Clear();

  TileCacheStats Stats() const;

  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Tile> tile;
    int64_t size_bytes = 0;    // serialized (DFS-comparable hit accounting)
    int64_t memory_bytes = 0;  // aligned in-memory footprint (budgeting)
  };
  void EvictLockedUntilFits(int64_t incoming_bytes) CUMULON_REQUIRES(mu_);

  const int64_t capacity_bytes_;
  mutable Mutex mu_{"TileCache::mu_"};
  std::list<Entry> lru_ CUMULON_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      CUMULON_GUARDED_BY(mu_);
  int64_t bytes_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t hits_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t misses_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t insertions_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t evictions_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t invalidations_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t hit_bytes_ CUMULON_GUARDED_BY(mu_) = 0;
};

/// Per-node caches of a whole cluster: node i of the DFS gets caches_[i].
/// Owned by the engines (real and sim) so cache capacity is derived from
/// the same MachineProfile the scheduler and memory-feasibility filter use.
class TileCacheGroup {
 public:
  TileCacheGroup(int num_nodes, int64_t bytes_per_node);

  /// Cache of `node`, or nullptr when the node index is out of range
  /// (e.g. reads attributed to the client, reader_node = -1).
  TileCache* node(int node);

  int num_nodes() const { return static_cast<int>(caches_.size()); }
  int64_t bytes_per_node() const { return bytes_per_node_; }

  /// Summed counters across all nodes.
  TileCacheStats TotalStats() const;

  /// Drops `key` from every node's cache (a Put made all copies stale).
  void InvalidateAll(const std::string& key);

  /// Drops every entry under `prefix` from every node's cache.
  int64_t InvalidatePrefixAll(const std::string& prefix);

  /// Drops everything cached on one node — the node's memory is gone (e.g.
  /// its transient machine was revoked). Returns the tile count dropped;
  /// no-op (0) for out-of-range nodes.
  int64_t ClearNode(int node);

  void Clear();

 private:
  int64_t bytes_per_node_;
  std::vector<std::unique_ptr<TileCache>> caches_;
};

/// Fraction of a slot's share of machine memory that its tasks may use;
/// the rest is framework overhead. The engines size their node caches with
/// it and the job tuner's memory-feasibility filter screens splits with it,
/// so both agree on how machine memory is divided.
inline constexpr double kSlotMemoryFraction = 0.8;

/// Cache budget of one node: machine memory minus the slots' task working
/// sets, each `slot_memory_fraction` of a slot's share (kSlotMemoryFraction
/// in the engines).
int64_t NodeTileCacheBudget(double machine_memory_bytes, int slots_per_machine,
                            double slot_memory_fraction);

}  // namespace cumulon

#endif  // CUMULON_DFS_TILE_CACHE_H_
