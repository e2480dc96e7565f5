// Distributed databases: solved levels kept as per-rank shards.
//
// Exactly what the paper's memory argument is about — the working set of a
// level build is divided by P, so databases too large for one node's
// memory fit the aggregate memory of the cluster.  In replicated mode
// every rank instead holds a full copy of each solved level (cheaper exit
// lookups, P× the memory): ablation A3.
//
// Storage itself is delegated to one para::LevelStore per rank: the
// in-memory backend by default, or — when the StoreConfig sets a
// working-set budget — the file-backed backend that spills completed
// levels to scratch and faults blocks back on demand, which is how a
// build larger than the host's RAM stays feasible even at P=1.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "retra/db/database.hpp"
#include "retra/index/board_index.hpp"
#include "retra/para/level_store.hpp"
#include "retra/para/partition.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::para {

class DistributedDatabase {
 public:
  DistributedDatabase(PartitionScheme scheme, std::uint64_t block_size,
                      int ranks, bool replicated,
                      const StoreConfig& store_config = {})
      : scheme_(scheme),
        block_size_(block_size),
        ranks_(ranks),
        replicated_(replicated),
        store_config_(store_config) {
    stores_.reserve(support::to_size(ranks));
    for (int r = 0; r < ranks; ++r) {
      stores_.push_back(make_level_store(store_config_, r));
    }
  }

  int ranks() const { return ranks_; }
  bool replicated() const { return replicated_; }
  PartitionScheme scheme() const { return scheme_; }
  std::uint64_t block_size() const { return block_size_; }
  int num_levels() const { return static_cast<int>(partitions_.size()); }
  const StoreConfig& store_config() const { return store_config_; }

  /// One rank's level storage (the engine builds into it directly).
  LevelStore& store(int rank) { return *stores_[support::to_size(rank)]; }
  const LevelStore& store(int rank) const {
    return *stores_[support::to_size(rank)];
  }

  /// Partition layout for a level of the given size (also used for the
  /// level currently being built).
  Partition make_partition(std::uint64_t size) const {
    return Partition(scheme_, size, ranks_, block_size_);
  }
  const Partition& partition(int level) const {
    RETRA_CHECK(level >= 0 && level < num_levels());
    return partitions_[support::to_size(level)];
  }

  /// Stores a solved level from per-rank shards, shards[r][local] laid out
  /// by the level's partition (partitioned mode; checkpoint resume).
  void push_level_shards(int level, std::uint64_t size,
                         std::vector<std::vector<db::Value>> shards);

  /// Stores a solved level as one full copy per rank (replicated mode,
  /// produced by the shard-exchange phase).  Abandons any builds still
  /// active on the stores — the exchanged full copy supersedes them.
  void push_level_full(int level,
                       std::vector<std::vector<db::Value>> per_rank_full);

  /// Completes a level directly from the builds active on the per-rank
  /// stores (partitioned mode): checks each build against the level's
  /// partition, then seals every store — the zero-copy path, and the one
  /// that lets the file backend spill without the shards ever being
  /// gathered in RAM.
  void seal_level_from_builds(int level, std::uint64_t size);

  /// Where `rank` reads a lower-level position: in its own store at
  /// `local` when `owner == rank` (always, in replicated mode, where the
  /// local offset is the global index); otherwise `owner` is the rank to
  /// ask.
  Partition::Location locate(int rank, int level, idx::Index global) const {
    RETRA_CHECK(level >= 0 && level < num_levels());
    if (replicated_) return {rank, global};
    return partitions_[support::to_size(level)].locate(global);
  }

  /// Value of a lower-level position; callable by `rank` only when
  /// locate() names it the owner — the distributed-memory discipline the
  /// engine respects.  With the file backend this may fault a block in.
  db::Value value_local(int rank, int level, idx::Index global) const;

  /// Batch read of `rank`'s own store: out[i] = value at store offset
  /// locals[i] (a locate() local).  Ascending locals let the file backend
  /// fetch each block once per run; the batch counts once in
  /// dist_db.local_reads.
  void values_local(int rank, int level, std::span<const std::uint64_t> locals,
                    std::span<db::Value> out) const;

  /// Owner rank of a position (lookup routing).
  int owner(int level, idx::Index global) const {
    RETRA_CHECK(level >= 0 && level < num_levels());
    return partitions_[support::to_size(level)].owner(global);
  }

  /// Assembles the full database (tests, persistence, oracle queries).
  db::Database gather() const;

  /// Bytes of value storage held by one rank across all stored levels
  /// (logical — the file backend may keep far less resident).
  std::uint64_t bytes_on_rank(int rank) const;

  /// One rank's stored shard of a level, decoded — shard in partitioned
  /// mode, full copy in replicated mode (checkpointing, tests).
  std::vector<db::Value> read_rank_shard(int level, int rank) const;

 private:
  PartitionScheme scheme_;
  std::uint64_t block_size_;
  int ranks_;
  bool replicated_;
  StoreConfig store_config_;
  std::vector<Partition> partitions_;
  /// Per-rank level storage: shards (partitioned) or full copies
  /// (replicated).
  std::vector<std::unique_ptr<LevelStore>> stores_;
};

}  // namespace retra::para
