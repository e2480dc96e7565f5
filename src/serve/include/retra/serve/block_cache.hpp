// The one budgeted cache of decoded database blocks.
//
// Every file-backed read in retra — in-process serving (QueryService),
// the network server underneath it, and the out-of-core build's
// lower-level lookups (para::FileLevelStore) — keeps its decoded blocks
// here.  A BlockCache is a byte-budgeted LRU keyed by (level, block):
// a recency list plus a hash map from key to list node, so a hit is
// O(1).  An RTRADB01/02 level is a single block, so the same rules
// cover every file version.
//
// The rules:
//   * a miss evicts least-recently-used blocks *before* loading, sized
//     by the caller's scan-time estimate, so residency does not
//     overshoot the budget while the new block decodes; it trims again
//     after the load in case the decoded size differs;
//   * the block being returned is never the victim, so a block larger
//     than the whole budget is still served (the cache then holds only
//     it) — a tiny budget degrades to thrashing, never to wrong answers;
//   * eviction order depends only on the sequence of get() calls.
//
// Blocks are handed out as shared_ptr, so a holder (net::Store's hot
// tier) keeps a block alive after the cache evicts it, without a copy.
//
// No mutex and no obs calls: the owner locks (FileLevelStore) or is
// single-threaded (QueryService behind net::Store's service mutex), and
// publishes whatever metrics it owns from stats().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "retra/db/compact.hpp"

namespace retra::serve {

class BlockCache {
 public:
  struct Key {
    int level = 0;
    int block = 0;
    bool operator==(const Key&) const = default;
  };
  using Block = std::shared_ptr<const db::CompactLevel>;

  /// Lifetime counters plus the residency gauges.
  struct Stats {
    std::uint64_t hits = 0;         // get() calls answered from the cache
    std::uint64_t faults = 0;       // blocks loaded on a miss
    std::uint64_t fault_bytes = 0;  // decoded bytes of those loads
    std::uint64_t evictions = 0;    // blocks dropped for the budget
    std::uint64_t resident_bytes = 0;       // decoded bytes held now
    std::uint64_t peak_resident_bytes = 0;  // lifetime peak of the above
  };

  /// `budget_bytes` caps resident decoded bytes; 0 means unlimited.
  explicit BlockCache(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

  /// Returns the block under `key`, marking it most recently used.  On a
  /// miss, makes room for `estimate` bytes, then calls `load()` (which
  /// returns the decoded db::CompactLevel) and caches the result.  The
  /// reference stays valid until the next get().
  template <typename Load>
  const Block& get(Key key, std::uint64_t estimate, Load&& load) {
    if (const Block* hit = touch(key)) return *hit;
    make_room(estimate);
    return insert(key, std::make_shared<const db::CompactLevel>(load()));
  }

  /// Resident keys, most recently used first.
  std::vector<Key> keys() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Key key;
    Block block;
  };
  struct KeyHash {
    std::size_t operator()(Key key) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.level))
           << 32) |
          static_cast<std::uint32_t>(key.block));
    }
  };

  /// Hit path: moves `key` to the front and counts the hit; nullptr on
  /// a miss.
  const Block* touch(Key key);
  /// Evicts LRU blocks until `incoming` more bytes fit (or none remain).
  void make_room(std::uint64_t incoming);
  /// Caches a freshly loaded block as most recently used, then trims
  /// every other block the budget cannot hold.
  const Block& insert(Key key, Block block);
  void evict_lru();
  bool over_budget(std::uint64_t extra) const {
    return budget_ != 0 && stats_.resident_bytes + extra > budget_;
  }

  const std::uint64_t budget_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace retra::serve
