#include "retra/net/store.hpp"

#include "retra/support/check.hpp"

namespace retra::net {

Store::Store(std::unique_ptr<serve::QueryService> service,
             std::uint64_t hot_bytes)
    : service_(std::move(service)), hot_bytes_(hot_bytes) {
  RETRA_CHECK(service_ != nullptr);
  // No other thread can see this Store yet; the lock only satisfies the
  // static pt_guarded_by contract on service_.
  const support::MutexLock lock(service_mutex_);
  const db::FileIndex& index = service_->index();
  num_levels_ = static_cast<int>(index.levels.size());
  level_sizes_.reserve(index.levels.size());
  level_block_positions_.reserve(index.levels.size());
  level_block_counts_.reserve(index.levels.size());
  for (const db::LevelLocation& location : index.levels) {
    level_sizes_.push_back(location.size);
    level_block_positions_.push_back(location.block_positions);
    level_block_counts_.push_back(location.block_count());
  }
}

std::uint64_t Store::values(int level, std::span<const idx::Index> indices,
                            std::span<db::Value> out) {
  RETRA_DCHECK(level >= 0 && level < num_levels_);
  RETRA_DCHECK(out.size() >= indices.size());

  if (indices.empty()) {
    // An empty batch still warms the level's first block, exactly as the
    // in-process service does.
    const support::MutexLock lock(service_mutex_);
    service_->values(level, indices, out);
    if (hot_bytes_ != 0 &&
        level_block_counts_[static_cast<std::size_t>(level)] > 0) {
      hot_promote(level, 0, service_->resident_block(level, 0));
    }
    return 0;
  }

  // Hot pass: answer every index whose block is hot under the shared
  // lock; remember the positions that missed.
  std::vector<std::uint32_t> missed;
  std::uint64_t hot_answered = 0;
  if (hot_bytes_ != 0) {
    const support::ReaderMutexLock lock(hot_mutex_);
    int current = -1;
    const db::CompactLevel* block = nullptr;
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const int b = block_of(level, indices[i]);
      if (b != current) {
        current = b;
        const auto it = hot_.find(hot_key(level, b));
        block = it == hot_.end() ? nullptr : it->second.block.get();
        begin = block_begin(level, b);
      }
      if (block) {
        out[i] = block->get(indices[i] - begin);
        ++hot_answered;
      } else {
        missed.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (missed.empty()) return hot_answered;
  } else {
    missed.resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      missed[i] = static_cast<std::uint32_t>(i);
    }
  }

  // Miss pass: serve the cold indices through the locked service (so
  // faults, evictions and serve.* metrics move exactly as in-process
  // serving), then promote the blocks they touched.
  const support::MutexLock lock(service_mutex_);
  if (missed.size() == indices.size()) {
    service_->values(level, indices, out);
  } else {
    std::vector<idx::Index> cold_indices(missed.size());
    std::vector<db::Value> cold_out(missed.size());
    for (std::size_t j = 0; j < missed.size(); ++j) {
      cold_indices[j] = indices[missed[j]];
    }
    service_->values(level, cold_indices, cold_out);
    for (std::size_t j = 0; j < missed.size(); ++j) {
      out[missed[j]] = cold_out[j];
    }
  }
  if (hot_bytes_ != 0) {
    std::vector<int> cold_blocks;
    for (const std::uint32_t j : missed) {
      const int b = block_of(level, indices[j]);
      bool seen = false;
      for (const int known : cold_blocks) {
        if (known == b) {
          seen = true;
          break;
        }
      }
      if (!seen) cold_blocks.push_back(b);
    }
    for (const int b : cold_blocks) {
      hot_promote(level, b, service_->resident_block(level, b));
    }
  }
  return hot_answered;
}

serve::QueryService::Stats Store::service_stats() const {
  const support::MutexLock lock(service_mutex_);
  return service_->stats();
}

void Store::hot_promote(int level, int block,
                        serve::BlockCache::Block resident) {
  const std::uint64_t bytes = resident->memory_bytes();
  if (bytes > hot_bytes_) return;  // would evict the whole tier for one block
  const support::WriterMutexLock lock(hot_mutex_);
  const std::uint64_t key = hot_key(level, block);
  if (hot_.contains(key)) return;  // raced with another promoter
  while (!hot_order_.empty() && hot_resident_ + bytes > hot_bytes_) {
    const std::uint64_t victim = hot_order_.back();
    hot_order_.pop_back();
    const auto it = hot_.find(victim);
    RETRA_CHECK(it != hot_.end());
    hot_resident_ -= it->second.block->memory_bytes();
    hot_.erase(it);
  }
  // Shared, not copied: the service may evict its handle at any later
  // query; the hot tier's handle keeps the block alive for hot readers.
  hot_order_.push_front(key);
  hot_.emplace(key, HotEntry{std::move(resident), hot_order_.begin()});
  hot_resident_ += bytes;
}

}  // namespace retra::net
