// The server-side lookup store: a thread-safe facade over QueryService
// with a shared read-mostly hot tier of decoded blocks.
//
// QueryService is single-threaded by design (one block cache).  A
// network server has many worker threads answering lookups
// concurrently, so Store layers two paths over one service:
//
//   * hot path — a small tier of decoded blocks under its own byte
//     budget, guarded by a shared_mutex taken shared: any number of
//     workers answer hot blocks in parallel without touching the
//     service or its cache.  For RTRADB01/02 files a level is
//     one block; for RTRADB03 each fixed-size block is promoted
//     independently, so a compressed level can be partially hot — a
//     batch answers its hot blocks shared and takes the miss path only
//     for the rest;
//   * miss path — the service itself behind a plain mutex: the missing
//     blocks are faulted/touched/answered exactly as in-process serving
//     does (serve.* metrics included), then promoted into the hot tier
//     if they fit.
//
// Hot-tier eviction is promotion-order FIFO, not LRU: reordering on
// every hit would turn the shared lock exclusive and serialise the very
// path the tier exists to parallelise.  Promotion shares the service's
// decoded block (a shared_ptr from its BlockCache) instead of copying
// it, so a hot block survives the service evicting it at no extra cost.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "retra/serve/query_service.hpp"
#include "retra/support/sync.hpp"
#include "retra/support/thread_annotations.hpp"

namespace retra::net {

class Store {
 public:
  /// `hot_bytes` caps the decoded payload the hot tier may hold; 0
  /// disables the tier (every lookup takes the locked miss path).
  Store(std::unique_ptr<serve::QueryService> service,
        std::uint64_t hot_bytes);

  int num_levels() const { return num_levels_; }
  std::uint64_t level_size(int level) const { return level_sizes_[static_cast<std::size_t>(level)]; }
  const std::vector<std::uint64_t>& level_sizes() const {
    return level_sizes_;
  }

  /// Answers out[i] = value(level, indices[i]).  `level` must be
  /// covered and every index in range (the server validates before
  /// calling).  Returns the number of lookups answered by the hot tier
  /// (indices whose block was hot; the rest took the miss path).
  std::uint64_t values(int level, std::span<const idx::Index> indices,
                       std::span<db::Value> out)
      RETRA_EXCLUDES(service_mutex_, hot_mutex_);

  /// Point-in-time copy of the underlying service's counters.
  serve::QueryService::Stats service_stats() const
      RETRA_EXCLUDES(service_mutex_);

 private:
  /// Hot-tier key: one block of one level (block 0 for RTRADB01/02).
  static std::uint64_t hot_key(int level, int block) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level))
            << 32) |
           static_cast<std::uint32_t>(block);
  }

  int block_of(int level, idx::Index index) const {
    const std::uint32_t positions =
        level_block_positions_[static_cast<std::size_t>(level)];
    return positions == 0 ? 0 : static_cast<int>(index / positions);
  }
  std::uint64_t block_begin(int level, int block) const {
    return static_cast<std::uint64_t>(block) *
           level_block_positions_[static_cast<std::size_t>(level)];
  }

  void hot_promote(int level, int block, serve::BlockCache::Block resident)
      RETRA_EXCLUDES(hot_mutex_);

  // QueryService is single-threaded by design; the pointer is set once
  // in the constructor, the pointee is only touched under service_mutex_.
  std::unique_ptr<serve::QueryService> service_
      RETRA_PT_GUARDED_BY(service_mutex_);
  mutable support::Mutex service_mutex_;

  const std::uint64_t hot_bytes_;
  // Level geometry: filled in the constructor, immutable afterwards.
  int num_levels_ RETRA_NOT_GUARDED = 0;
  std::vector<std::uint64_t> level_sizes_ RETRA_NOT_GUARDED;
  std::vector<std::uint32_t> level_block_positions_ RETRA_NOT_GUARDED;
  std::vector<int> level_block_counts_ RETRA_NOT_GUARDED;

  mutable support::SharedMutex hot_mutex_;
  struct HotEntry {
    std::shared_ptr<const db::CompactLevel> block;
    std::list<std::uint64_t>::iterator order;  // position in hot_order_
  };
  std::unordered_map<std::uint64_t, HotEntry> hot_
      RETRA_GUARDED_BY(hot_mutex_);
  // front = most recently promoted
  std::list<std::uint64_t> hot_order_ RETRA_GUARDED_BY(hot_mutex_);
  std::uint64_t hot_resident_ RETRA_GUARDED_BY(hot_mutex_) = 0;
};

}  // namespace retra::net
