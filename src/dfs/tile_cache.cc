#include "dfs/tile_cache.h"

#include <algorithm>

namespace cumulon {

TileCache::TileCache(int64_t capacity_bytes)
    : capacity_bytes_(std::max<int64_t>(capacity_bytes, 0)) {}

std::shared_ptr<const Tile> TileCache::Get(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  // Promote to most-recently-used.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  hit_bytes_ += it->second->size_bytes;
  return it->second->tile;
}

void TileCache::EvictLockedUntilFits(int64_t incoming_bytes) {
  while (!lru_.empty() && bytes_ + incoming_bytes > capacity_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.memory_bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

void TileCache::Put(const std::string& key, std::shared_ptr<const Tile> tile) {
  if (tile == nullptr) return;
  // Budget against what the entry actually pins in memory — the aligned,
  // padded allocation — not its smaller serialized form.
  const int64_t memory_bytes = tile->MemoryBytes();
  const int64_t size_bytes = tile->SizeBytes();
  if (memory_bytes > capacity_bytes_) return;  // would evict everything
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->memory_bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  EvictLockedUntilFits(memory_bytes);
  lru_.push_front(Entry{key, std::move(tile), size_bytes, memory_bytes});
  index_[key] = lru_.begin();
  bytes_ += memory_bytes;
  ++insertions_;
}

void TileCache::Invalidate(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->memory_bytes;
  lru_.erase(it->second);
  index_.erase(it);
  ++invalidations_;
}

int64_t TileCache::InvalidatePrefix(const std::string& prefix) {
  int64_t dropped = 0;
  MutexLock lock(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(0, prefix.size(), prefix) == 0) {
      bytes_ -= it->memory_bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++invalidations_;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void TileCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

TileCacheStats TileCache::Stats() const {
  MutexLock lock(&mu_);
  TileCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.hit_bytes = hit_bytes_;
  stats.resident_bytes = bytes_;
  stats.resident_tiles = static_cast<int64_t>(lru_.size());
  return stats;
}

TileCacheGroup::TileCacheGroup(int num_nodes, int64_t bytes_per_node)
    : bytes_per_node_(std::max<int64_t>(bytes_per_node, 0)) {
  num_nodes = std::max(num_nodes, 0);
  caches_.reserve(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    caches_.push_back(std::make_unique<TileCache>(bytes_per_node_));
  }
}

TileCache* TileCacheGroup::node(int node) {
  if (node < 0 || node >= static_cast<int>(caches_.size())) return nullptr;
  return caches_[node].get();
}

TileCacheStats TileCacheGroup::TotalStats() const {
  TileCacheStats total;
  for (const auto& cache : caches_) {
    const TileCacheStats s = cache->Stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.hit_bytes += s.hit_bytes;
    total.resident_bytes += s.resident_bytes;
    total.resident_tiles += s.resident_tiles;
  }
  return total;
}

void TileCacheGroup::InvalidateAll(const std::string& key) {
  for (auto& cache : caches_) cache->Invalidate(key);
}

int64_t TileCacheGroup::InvalidatePrefixAll(const std::string& prefix) {
  int64_t dropped = 0;
  for (auto& cache : caches_) dropped += cache->InvalidatePrefix(prefix);
  return dropped;
}

int64_t TileCacheGroup::ClearNode(int node) {
  if (node < 0 || node >= num_nodes()) return 0;
  TileCache* cache = caches_[node].get();
  const int64_t dropped = cache->Stats().resident_tiles;
  cache->Clear();
  return dropped;
}

void TileCacheGroup::Clear() {
  for (auto& cache : caches_) cache->Clear();
}

int64_t NodeTileCacheBudget(double machine_memory_bytes, int slots_per_machine,
                            double slot_memory_fraction) {
  slots_per_machine = std::max(slots_per_machine, 1);
  const double slot_share = machine_memory_bytes / slots_per_machine;
  const double working_sets =
      slots_per_machine * slot_share * slot_memory_fraction;
  const double budget = machine_memory_bytes - working_sets;
  return budget <= 0.0 ? 0 : static_cast<int64_t>(budget);
}

}  // namespace cumulon
