// Distribution of a level's index space over ranks.
//
// All three schemes give O(1) owner lookup and dense, O(1)-addressable
// local shards, which the distributed value arrays require:
//
//   block         rank r owns one contiguous slab
//   cyclic        index i belongs to rank i mod P (a stride-1 "hash")
//   block-cyclic  blocks of `block_size` dealt round-robin
//
// Block partitions are cache- and scan-friendly but inherit whatever value
// locality the position ordering has (load imbalance late in a level);
// cyclic spreads hot regions evenly at the cost of scattering every scan.
// The A1 ablation quantifies the trade-off.
//
// The index arithmetic is inline: the drain routes every predecessor edge
// through locate(), so owner and offset come out of one division (two for
// block-cyclic) in the caller's loop instead of separate out-of-line calls.
#pragma once

#include <cstdint>
#include <string>

#include "retra/index/board_index.hpp"
#include "retra/support/check.hpp"

namespace retra::para {

enum class PartitionScheme { kBlock, kCyclic, kBlockCyclic };

const char* scheme_name(PartitionScheme scheme);

class Partition {
 public:
  Partition(PartitionScheme scheme, std::uint64_t size, int ranks,
            std::uint64_t block_size = 4096);

  PartitionScheme scheme() const { return scheme_; }
  std::uint64_t size() const { return size_; }
  int ranks() const { return ranks_; }

  /// Owner rank and shard offset of one global index.
  struct Location {
    int owner;
    std::uint64_t local;
  };

  /// owner() and to_local() in one step.
  Location locate(idx::Index index) const {
    RETRA_DCHECK(index < size_);
    switch (scheme_) {
      case PartitionScheme::kBlock: {
        const std::uint64_t slab = index / block_size_;
        return {static_cast<int>(slab), index - slab * block_size_};
      }
      case PartitionScheme::kCyclic: {
        const std::uint64_t round = index / uranks();
        return {static_cast<int>(index - round * uranks()), round};
      }
      case PartitionScheme::kBlockCyclic: {
        const std::uint64_t block = index / block_size_;
        const std::uint64_t round = block / uranks();
        return {static_cast<int>(block - round * uranks()),
                round * block_size_ + (index - block * block_size_)};
      }
    }
    return {0, 0};
  }

  int owner(idx::Index index) const { return locate(index).owner; }
  /// Offset of a global index within its owner's shard.
  std::uint64_t to_local(idx::Index index) const {
    return locate(index).local;
  }

  /// Inverse of to_local for a given rank.
  idx::Index to_global(int rank, std::uint64_t local) const {
    const auto r = static_cast<std::uint64_t>(rank);
    switch (scheme_) {
      case PartitionScheme::kBlock:
        return r * block_size_ + local;
      case PartitionScheme::kCyclic:
        return local * uranks() + r;
      case PartitionScheme::kBlockCyclic: {
        const std::uint64_t round = local / block_size_;
        return (round * uranks() + r) * block_size_ +
               (local - round * block_size_);
      }
    }
    return 0;
  }

  std::uint64_t local_size(int rank) const;

 private:
  /// ranks_ as the unsigned type the index arithmetic runs in.
  std::uint64_t uranks() const { return static_cast<std::uint64_t>(ranks_); }

  PartitionScheme scheme_;
  std::uint64_t size_;
  int ranks_;
  std::uint64_t block_size_;  // block scheme: slab width; block-cyclic: block
};

}  // namespace retra::para
