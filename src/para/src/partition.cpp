#include "retra/para/partition.hpp"

#include <algorithm>

#include "retra/support/check.hpp"

namespace retra::para {

const char* scheme_name(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kBlock:
      return "block";
    case PartitionScheme::kCyclic:
      return "cyclic";
    case PartitionScheme::kBlockCyclic:
      return "block-cyclic";
  }
  return "?";
}

Partition::Partition(PartitionScheme scheme, std::uint64_t size, int ranks,
                     std::uint64_t block_size)
    : scheme_(scheme), size_(size), ranks_(ranks), block_size_(block_size) {
  RETRA_CHECK(ranks >= 1);
  RETRA_CHECK(block_size >= 1);
  if (scheme_ == PartitionScheme::kBlock) {
    // Uniform slab width; the last rank's slab may be short (or empty when
    // there are more ranks than positions).
    block_size_ = (size_ + uranks() - 1) / uranks();
    if (block_size_ == 0) block_size_ = 1;
  }
}

std::uint64_t Partition::local_size(int rank) const {
  switch (scheme_) {
    case PartitionScheme::kBlock: {
      const std::uint64_t begin =
          std::min(static_cast<std::uint64_t>(rank) * block_size_, size_);
      const std::uint64_t end = std::min(begin + block_size_, size_);
      return end - begin;
    }
    case PartitionScheme::kCyclic: {
      const std::uint64_t r = static_cast<std::uint64_t>(rank);
      return size_ / uranks() + (r < size_ % uranks() ? 1 : 0);
    }
    case PartitionScheme::kBlockCyclic: {
      // Count full and partial blocks owned by `rank`.
      const std::uint64_t stride = block_size_ * uranks();
      const std::uint64_t full_rounds = size_ / stride;
      std::uint64_t owned = full_rounds * block_size_;
      const std::uint64_t rest = size_ % stride;
      const std::uint64_t r = static_cast<std::uint64_t>(rank);
      const std::uint64_t rest_begin =
          std::min(rest, r * block_size_);
      const std::uint64_t rest_end =
          std::min(rest, (r + 1) * block_size_);
      owned += rest_end - rest_begin;
      return owned;
    }
  }
  return 0;
}

}  // namespace retra::para
