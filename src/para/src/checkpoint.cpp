#include "retra/para/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "retra/db/db_io.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::para {

namespace {

constexpr char kManifestName[] = "manifest.txt";
constexpr int kManifestVersion = 3;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

std::string shard_path(const std::string& directory, int level, int rank) {
  return directory + "/level_" + std::to_string(level) + "_rank_" +
         std::to_string(rank) + ".rtradb";
}

bool parse_scheme(const std::string& token, PartitionScheme& out) {
  for (PartitionScheme scheme : {PartitionScheme::kBlock,
                                 PartitionScheme::kCyclic,
                                 PartitionScheme::kBlockCyclic}) {
    if (token == scheme_name(scheme)) {
      out = scheme;
      return true;
    }
  }
  return false;
}

}  // namespace

void checkpoint_save_level(const DistributedDatabase& ddb, int level,
                           const std::string& directory) {
  RETRA_CHECK(level >= 0 && level < ddb.num_levels());
  RETRA_OBS_SCOPED_TIMER(save_timer, obs::Id::kCheckpointSaveSeconds);
  std::filesystem::create_directories(directory);

  std::uint64_t written = 0;
  for (int rank = 0; rank < ddb.ranks(); ++rank) {
    // One decoded shard at a time — an out-of-core checkpoint never
    // materialises the whole level in RAM.  Each shard becomes a
    // one-level RTRADB03 file, written as the file level store spills it.
    db::Database holder;
    holder.push_level(0, ddb.read_rank_shard(level, rank));
    const std::string path = shard_path(directory, level, rank);
    db::save(holder, path,
             db::Format{.block_positions = ddb.store_config().block_positions});
    written += std::filesystem::file_size(path);
  }

  // Manifest last: a crash before it leaves the previous manifest, so a
  // torn shard file is never referenced.
  File manifest(
      std::fopen((directory + "/" + kManifestName).c_str(), "w"));
  RETRA_CHECK_MSG(manifest != nullptr, "cannot write checkpoint manifest");
  const int chars = std::fprintf(
      manifest.get(),
      "retra-checkpoint %d\nranks %d\nscheme %s\nblock %" PRIu64
      "\nreplicated %d\nlevels %d\n",
      kManifestVersion, ddb.ranks(), scheme_name(ddb.scheme()),
      ddb.block_size(), ddb.replicated() ? 1 : 0, level + 1);
  RETRA_CHECK_MSG(chars > 0 && std::fflush(manifest.get()) == 0,
                  "cannot write checkpoint manifest");
  written += static_cast<std::uint64_t>(chars);
  RETRA_OBS_ADD(obs::Id::kCheckpointBytesWritten, written);
}

CheckpointLoad checkpoint_load(const std::string& directory,
                               const StoreConfig& store_config) {
  CheckpointLoad result;
  RETRA_OBS_SCOPED_TIMER(load_timer, obs::Id::kCheckpointLoadSeconds);
  File manifest(
      std::fopen((directory + "/" + kManifestName).c_str(), "r"));
  if (!manifest) {
    result.error = "no manifest in " + directory;
    return result;
  }
  int version = 0;
  if (std::fscanf(manifest.get(), "retra-checkpoint %d\n", &version) == 1 &&
      version >= 1 && version < kManifestVersion) {
    result.error = "checkpoint format " + std::to_string(version) +
                   " predates RTRADB03 shards";
    return result;
  }
  char scheme_buf[32] = {};
  int replicated = 0;
  std::uint64_t block = 0;
  if (version != kManifestVersion ||
      std::fscanf(manifest.get(),
                  "ranks %d\nscheme %31s\nblock %" SCNu64
                  "\nreplicated %d\nlevels %d\n",
                  &result.meta.ranks, scheme_buf, &block, &replicated,
                  &result.meta.levels) != 5) {
    result.error = "malformed manifest";
    return result;
  }
  RETRA_OBS_ADD(obs::Id::kCheckpointBytesRead,
                static_cast<std::uint64_t>(std::ftell(manifest.get())));
  result.meta.block_size = block;
  result.meta.replicated = replicated != 0;
  if (!parse_scheme(scheme_buf, result.meta.scheme)) {
    result.error = "unknown partition scheme in manifest";
    return result;
  }
  if (result.meta.ranks < 1 || result.meta.levels < 0) {
    result.error = "implausible manifest values";
    return result;
  }

  auto database = std::make_unique<DistributedDatabase>(
      result.meta.scheme, std::max<std::uint64_t>(result.meta.block_size, 1),
      result.meta.ranks, result.meta.replicated, store_config);

  for (int level = 0; level < result.meta.levels; ++level) {
    const std::string where = " in level " + std::to_string(level);
    std::vector<std::vector<db::Value>> shards(
        support::to_size(result.meta.ranks));
    std::uint64_t total = 0;
    for (int rank = 0; rank < result.meta.ranks; ++rank) {
      const std::string at = where + " rank " + std::to_string(rank);
      const std::string path = shard_path(directory, level, rank);
      std::error_code ec;
      const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
      if (ec) {
        result.error = "missing shard file" + at;
        return result;
      }
      RETRA_OBS_ADD(obs::Id::kCheckpointBytesRead, file_bytes);
      // Every checksum verified; diagnoses, never aborts.
      const db::LevelReadResult shard = db::read_only_level(path);
      if (!shard.ok) {
        result.error = "bad shard file" + at + ": " + shard.error;
        return result;
      }
      shards[support::to_size(rank)] = shard.level.expand();
      total += shards[support::to_size(rank)].size();
    }
    // A shard file copied to the wrong rank or level must be diagnosed
    // here: the push_level_* calls abort on a layout mismatch.
    const Partition partition = database->make_partition(total);
    for (int rank = 0; rank < result.meta.ranks; ++rank) {
      const std::uint64_t expected = result.meta.replicated
                                         ? shards.front().size()
                                         : partition.local_size(rank);
      if (shards[support::to_size(rank)].size() != expected) {
        result.error = "shard size does not match the partition" + where +
                       " rank " + std::to_string(rank);
        return result;
      }
    }
    if (result.meta.replicated) {
      database->push_level_full(level, std::move(shards));
    } else {
      database->push_level_shards(level, total, std::move(shards));
    }
  }
  result.database = std::move(database);
  result.ok = true;
  return result;
}

bool checkpoint_compatible(const CheckpointMeta& meta, int ranks,
                           PartitionScheme scheme, std::uint64_t block_size,
                           bool replicated) {
  if (meta.ranks != ranks || meta.scheme != scheme ||
      meta.replicated != replicated) {
    return false;
  }
  // Block size only matters for block-cyclic layouts.
  if (scheme == PartitionScheme::kBlockCyclic &&
      meta.block_size != block_size) {
    return false;
  }
  return true;
}

}  // namespace retra::para
