#include "retra/serve/block_cache.hpp"

#include <algorithm>

namespace retra::serve {

std::vector<BlockCache::Key> BlockCache::keys() const {
  std::vector<Key> keys;
  keys.reserve(order_.size());
  for (const Entry& entry : order_) keys.push_back(entry.key);
  return keys;
}

const BlockCache::Block* BlockCache::touch(Key key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  order_.splice(order_.begin(), order_, it->second);
  ++stats_.hits;
  return &it->second->block;
}

void BlockCache::make_room(std::uint64_t incoming) {
  while (!order_.empty() && over_budget(incoming)) evict_lru();
}

const BlockCache::Block& BlockCache::insert(Key key, Block block) {
  const std::uint64_t bytes = block->memory_bytes();
  ++stats_.faults;
  stats_.fault_bytes += bytes;
  stats_.resident_bytes += bytes;
  order_.push_front(Entry{key, std::move(block)});
  index_.emplace(key, order_.begin());
  // The estimate is exact for RTRADB02/03; trim in case it was not
  // (never the block just inserted).
  while (order_.size() > 1 && over_budget(0)) evict_lru();
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return order_.front().block;
}

void BlockCache::evict_lru() {
  const Entry& victim = order_.back();
  stats_.resident_bytes -= victim.block->memory_bytes();
  index_.erase(victim.key);
  order_.pop_back();
  ++stats_.evictions;
}

}  // namespace retra::serve
