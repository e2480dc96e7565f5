// The query-serving layer: a budgeted, metered, file-backed ValueSource.
//
// QueryService is a FileSource (the reader) plus a BlockCache (the
// budgeted LRU of decoded blocks).  Answering a query against a block
// that is not cached reads and decodes it, evicting least-recently-used
// blocks to keep the resident decoded bytes under the configured
// budget; see block_cache.hpp for the eviction rules.  Every file
// version takes the same path: an RTRADB01/02 level is one block, an
// RTRADB03 level many.  Eviction order is deterministic: it depends
// only on the query sequence.
//
// Every lookup, batch, hit, fault and eviction is published through the
// obs registry (serve.lookups, serve.batch_size, serve.blockcache.*;
// docs/METRICS.md) and mirrored in stats(), so a bench artifact and the
// service's own counters can be reconciled exactly.
//
// Not thread-safe: one QueryService per serving thread.  Concurrent
// callers must go through net::Store, whose service_mutex_ carries the
// RETRA_PT_GUARDED_BY contract for the shared instance — this class
// deliberately has no mutex members, so the lock-coverage analysis
// (docs/ANALYSIS.md) does not apply here.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "retra/serve/block_cache.hpp"
#include "retra/serve/file_source.hpp"
#include "retra/serve/value_source.hpp"

namespace retra::serve {

struct QueryServiceConfig {
  /// Resident decoded-byte budget; 0 means unlimited (every block stays
  /// resident once faulted, nothing is ever evicted).
  std::uint64_t budget_bytes = 0;
};

class QueryService final : public ValueSource {
 public:
  /// Result of open(): either a ready service or the FileSource's
  /// diagnosis of why the database file was rejected.
  struct OpenResult {
    bool ok = false;
    std::string error;
    std::unique_ptr<QueryService> service;
  };
  static OpenResult open(const std::string& path,
                         const QueryServiceConfig& config = {});

  int num_levels() const override { return file_->num_levels(); }
  std::uint64_t level_size(int level) const override {
    return file_->level_size(level);
  }
  Value value(int level, idx::Index index) override;
  void values(int level, std::span<const idx::Index> indices,
              std::span<Value> out) override;

  /// Local mirror of the serve.* obs metrics for this instance: the
  /// block cache's counters plus the lookup totals.
  struct Stats : BlockCache::Stats {
    std::uint64_t lookups = 0;  // positions answered (single + batched)
    std::uint64_t batches = 0;  // values() calls
  };
  Stats stats() const;

  const QueryServiceConfig& config() const { return config_; }
  const db::FileIndex& index() const { return file_->index(); }

  int block_count(int level) const { return file_->block_count(level); }
  int block_of(int level, idx::Index index) const {
    return file_->block_of(level, index);
  }
  std::uint64_t block_begin(int level, int block) const {
    return file_->block_begin(level, block);
  }

  /// Touches block `block` of `level` exactly as a query would (fault
  /// in, mark most recently used, evict LRU victims) and returns it,
  /// indexed from its first position.  The network layer's hot tier
  /// shares the returned block; it stays alive after the cache evicts
  /// it.
  BlockCache::Block resident_block(int level, int block) {
    return touch(level, block);
  }

  /// Levels with at least one resident block, most recently used first
  /// (tests, introspection).
  std::vector<int> resident_levels() const;

  /// Resident (level, block) units, most recently used first.
  std::vector<std::pair<int, int>> resident_blocks() const;

 private:
  struct Passkey {};

 public:
  QueryService(Passkey, std::unique_ptr<FileSource> file,
               const QueryServiceConfig& config);

 private:
  /// Returns the block, faulting it in and publishing the cache's
  /// counter moves.
  const BlockCache::Block& touch(int level, int block);

  std::unique_ptr<FileSource> file_;
  QueryServiceConfig config_;
  BlockCache cache_;
  std::uint64_t lookups_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace retra::serve
