#include "retra/serve/query_service.hpp"

#include <utility>

#include "retra/obs/metrics.hpp"
#include "retra/support/check.hpp"

namespace retra::serve {

QueryService::QueryService(Passkey, std::unique_ptr<FileSource> file,
                           const QueryServiceConfig& config)
    : file_(std::move(file)), config_(config), cache_(config.budget_bytes) {}

QueryService::OpenResult QueryService::open(const std::string& path,
                                            const QueryServiceConfig& config) {
  OpenResult result;
  FileSource::OpenResult file = FileSource::open(path);
  if (!file.ok) {
    result.error = std::move(file.error);
    return result;
  }
  result.ok = true;
  result.service = std::make_unique<QueryService>(
      Passkey{}, std::move(file.source), config);
  return result;
}

QueryService::Stats QueryService::stats() const {
  Stats stats;
  static_cast<BlockCache::Stats&>(stats) = cache_.stats();
  stats.lookups = lookups_;
  stats.batches = batches_;
  return stats;
}

const BlockCache::Block& QueryService::touch(int level, int block) {
  const std::uint64_t evictions = cache_.stats().evictions;
  bool faulted = false;
  const BlockCache::Block& data =
      cache_.get({level, block}, file_->block_decoded_bytes(level, block),
                 [&] {
                   RETRA_OBS_SCOPED_TIMER(timer,
                                          obs::Id::kServeBlockDecodeSeconds);
                   faulted = true;
                   return file_->read_block(level, block);
                 });
  if (!faulted) {
    RETRA_OBS_INC(obs::Id::kServeBlockHits);
    return data;
  }
  RETRA_OBS_INC(obs::Id::kServeBlockFaults);
  RETRA_OBS_ADD(obs::Id::kServeBlockEvictions,
                cache_.stats().evictions - evictions);
  RETRA_OBS_SET(obs::Id::kServeBlockResidentBytes,
                cache_.stats().resident_bytes);
  return data;
}

Value QueryService::value(int level, idx::Index index) {
  const int block = file_->block_of(level, index);
  const db::CompactLevel& stored = *touch(level, block);
  ++lookups_;
  RETRA_OBS_INC(obs::Id::kServeLookups);
  return stored.get(index - file_->block_begin(level, block));
}

void QueryService::values(int level, std::span<const idx::Index> indices,
                          std::span<Value> out) {
  RETRA_CHECK(out.size() >= indices.size());
  int current = -1;
  const db::CompactLevel* stored = nullptr;
  std::uint64_t begin = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int block = file_->block_of(level, indices[i]);
    if (block != current) {
      stored = touch(level, block).get();
      begin = file_->block_begin(level, block);
      current = block;
    }
    out[i] = stored->get(indices[i] - begin);
  }
  if (indices.empty() && file_->covers(level) &&
      file_->block_count(level) > 0) {
    touch(level, 0);  // an empty batch still warms the level
  }
  ++batches_;
  lookups_ += indices.size();
  RETRA_OBS_ADD(obs::Id::kServeLookups, indices.size());
  RETRA_OBS_OBSERVE(obs::Id::kServeBatchSize, indices.size());
}

std::vector<int> QueryService::resident_levels() const {
  std::vector<int> levels;
  std::vector<bool> seen(static_cast<std::size_t>(num_levels()), false);
  for (const BlockCache::Key& key : cache_.keys()) {
    if (seen[static_cast<std::size_t>(key.level)]) continue;
    seen[static_cast<std::size_t>(key.level)] = true;
    levels.push_back(key.level);
  }
  return levels;
}

std::vector<std::pair<int, int>> QueryService::resident_blocks() const {
  std::vector<std::pair<int, int>> blocks;
  for (const BlockCache::Key& key : cache_.keys()) {
    blocks.emplace_back(key.level, key.block);
  }
  return blocks;
}

}  // namespace retra::serve
