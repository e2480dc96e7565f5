#include "retra/para/level_store.hpp"

#include <cstdio>
#include <filesystem>

#include "retra/db/db_io.hpp"
#include "retra/support/numeric.hpp"

namespace retra::para {

// --------------------------------------------------------------- FileLevelStore

FileLevelStore::FileLevelStore(const StoreConfig& config, int rank)
    : config_(config), rank_(rank), cache_(config.working_set_bytes) {
  RETRA_CHECK_MSG(config_.out_of_core(),
                  "FileLevelStore needs a nonzero working-set budget");
  RETRA_CHECK_MSG(!config_.scratch_dir.empty(),
                  "out-of-core build needs --scratch-dir");
  std::filesystem::create_directories(config_.scratch_dir);
}

FileLevelStore::~FileLevelStore() {
  support::MutexLock lock(mutex_);
  for (SpilledLevel& level : levels_) {
    level.source.reset();  // closes the scratch file
    if (!level.path.empty()) std::remove(level.path.c_str());
  }
}

std::string FileLevelStore::level_path(int level) const {
  return config_.scratch_dir + "/rank" + std::to_string(rank_) + "_level" +
         std::to_string(level) + ".rtradb";
}

void FileLevelStore::store_shard(std::vector<db::Value> shard) {
  const int level = num_levels() - 1;  // push_shard recorded the size already
  SpilledLevel spilled;
  if (!shard.empty()) {
    // The shard becomes a one-level RTRADB03 file — inside the scratch
    // file it is always level 0, whatever build level it holds.
    spilled.path = level_path(level);
    db::Database holder;
    holder.push_level(0, std::move(shard));
    db::save(holder, spilled.path,
             db::Format{.block_positions = config_.block_positions});
    serve::FileSource::OpenResult opened =
        serve::FileSource::open(spilled.path);
    RETRA_CHECK_MSG(opened.ok, "cannot reopen spilled level");
    spilled.source = std::move(opened.source);
  }
  support::MutexLock lock(mutex_);
  if (spilled.source != nullptr) {
    levels_spilled_ += 1;
    spill_bytes_ += spilled.source->index().total_payload_bytes();
  }
  levels_.push_back(std::move(spilled));
}

void FileLevelStore::values(int level, std::span<const std::uint64_t> locals,
                            std::span<db::Value> out) const {
  std::size_t i = 0;
  while (i < locals.size()) {
    // One lock and one cache get per run of same-block locals; the block
    // is held by reference count, so the run's reads need no lock.
    std::uint64_t begin;
    serve::BlockCache::Block data;
    {
      support::MutexLock lock(mutex_);
      serve::FileSource& source = *levels_[support::to_size(level)].source;
      const int block = source.block_of(0, locals[i]);
      begin = source.block_begin(0, block);
      data = cache_.get({level, block}, source.block_decoded_bytes(0, block),
                        [&] { return source.read_block(0, block); });
    }
    const std::uint64_t end = begin + data->size();
    for (; i < locals.size() && locals[i] >= begin && locals[i] < end; ++i) {
      out[i] = data->get(locals[i] - begin);
    }
  }
}

void FileLevelStore::visit_shard(int level, const ShardVisitor& fn) const {
  RETRA_CHECK(level >= 0 && level < num_levels());
  if (shard_size(level) == 0) {
    fn(std::span<const db::Value>{});
    return;
  }
  // A fresh read of the scratch file, independent of the working-set
  // cache: whole-shard visits (gather, checkpoint) must not disturb the
  // fault/evict counters the tests pin down.
  std::string path;
  {
    support::MutexLock lock(mutex_);
    path = levels_[support::to_size(level)].path;
  }
  const db::LevelReadResult read = db::read_only_level(path);
  RETRA_CHECK_MSG(read.ok, "spilled level failed to read: " + read.error);
  const std::vector<db::Value> values = read.level.expand();
  fn(std::span<const db::Value>(values));
}

StoreStats FileLevelStore::stats() const {
  support::MutexLock lock(mutex_);
  const serve::BlockCache::Stats& cache = cache_.stats();
  StoreStats stats;
  stats.levels_spilled = levels_spilled_;
  stats.spill_bytes = spill_bytes_;
  stats.faults = cache.faults;
  stats.fault_bytes = cache.fault_bytes;
  stats.evictions = cache.evictions;
  stats.queue_spilled_records = queue_spilled();
  stats.resident_bytes = cache.resident_bytes;
  stats.peak_resident_bytes = cache.peak_resident_bytes;
  return stats;
}

std::unique_ptr<LevelStore> make_level_store(const StoreConfig& config,
                                             int rank) {
  if (!config.out_of_core()) return std::make_unique<MemoryLevelStore>();
  return std::make_unique<FileLevelStore>(config, rank);
}

// ------------------------------------------------------------------ SpillQueue

SpillQueue::~SpillQueue() {
  if (run_ != nullptr) {
    std::fclose(run_);
    std::remove((use_b_ ? path_b_ : path_a_).c_str());
  }
}

void SpillQueue::enable(const std::string& path_base,
                        std::uint64_t mem_entries, LevelStore* store) {
  RETRA_CHECK_MSG(mem_entries > 0, "queue budget must hold at least 1 entry");
  path_a_ = path_base + ".a.run";
  path_b_ = path_base + ".b.run";
  mem_entries_ = mem_entries;
  store_ = store;
}

void SpillQueue::spill_tail() {
  if (run_ == nullptr) {
    const std::string& path = use_b_ ? path_b_ : path_a_;
    run_ = std::fopen(path.c_str(), "wb+");
    RETRA_CHECK_MSG(run_ != nullptr, "cannot open drain-queue run file");
  }
  const std::size_t count = tail_.size();
  RETRA_CHECK_MSG(
      std::fwrite(tail_.data(), sizeof(std::uint64_t), count, run_) == count,
      "short write to drain-queue run file");
  run_records_ += count;
  if (store_ != nullptr) store_->note_queue_spill(count);
  tail_.clear();
}

void SpillQueue::begin_replay(std::FILE* run) {
  RETRA_CHECK_MSG(std::fseek(run, 0, SEEK_SET) == 0,
                  "cannot rewind drain-queue run file");
}

void SpillQueue::read_segment(std::FILE* run, std::vector<std::uint64_t>& out,
                              std::uint64_t count) {
  out.resize(support::to_size(count));
  RETRA_CHECK_MSG(std::fread(out.data(), sizeof(std::uint64_t),
                             out.size(), run) == out.size(),
                  "short read from drain-queue run file");
}

void SpillQueue::end_replay(std::FILE* run, const std::string& path) {
  std::fclose(run);
  std::remove(path.c_str());
}

}  // namespace retra::para
