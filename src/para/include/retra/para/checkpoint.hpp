// Checkpoint/restart for distributed builds.
//
// The paper's production runs were multi-day affairs on 64 workstations;
// a build that cannot resume after a crash is not usable at that scale.
// A checkpoint directory holds
//
//   manifest.txt                configuration + number of completed levels
//   level_<n>_rank_<r>.rtradb   rank r's storage for level n, as a
//                               one-level RTRADB03 file (docs/FORMAT.md)
//
// so a checkpoint is written and read by the database codec itself
// (db::save, db::read_only_level), with its header, directory and block
// checksums.
// A shard file can be inspected like any database (`retra_serve --db=`).
//
// build_parallel() with ParallelConfig::checkpoint_dir set writes a
// checkpoint after every completed level and, on start, resumes from
// whatever a previous run left behind — provided the configuration
// (ranks, partition scheme, replication mode) matches; a mismatched or
// corrupted checkpoint is reported and ignored, never silently adopted.
#pragma once

#include <memory>
#include <string>

#include "retra/para/dist_db.hpp"

namespace retra::para {

struct CheckpointMeta {
  int ranks = 0;
  PartitionScheme scheme = PartitionScheme::kCyclic;
  std::uint64_t block_size = 0;
  bool replicated = false;
  int levels = 0;  // completed levels (0..levels-1 are on disk)
};

/// Writes level `level` of `ddb` (which must already contain it), one
/// shard file per rank at the store's block size, plus a refreshed
/// manifest.  Creates the directory if needed.  Aborts on I/O failure — a
/// checkpoint that cannot be written must not be ignored.
void checkpoint_save_level(const DistributedDatabase& ddb, int level,
                           const std::string& directory);

struct CheckpointLoad {
  bool ok = false;
  std::string error;
  CheckpointMeta meta;
  std::unique_ptr<DistributedDatabase> database;
};

/// Loads a checkpoint directory; `ok == false` (with a diagnosis) for a
/// missing, malformed, corrupted or internally inconsistent checkpoint —
/// including a shard file whose size disagrees with the level's partition
/// and a manifest older than the RTRADB03 shard layout.
/// `store_config` selects the level-store backend of the loaded database:
/// with a working-set budget set, every restored level spills straight to
/// scratch, so resuming an out-of-core build never needs the whole
/// database in RAM at once.
CheckpointLoad checkpoint_load(const std::string& directory,
                               const StoreConfig& store_config = {});

/// True when the checkpoint's configuration matches, i.e. the loaded
/// database can seamlessly continue a build with these parameters.  Only
/// layout-determining fields are compared (ranks, scheme, block size where
/// it matters, replication mode); tuning knobs such as the combining
/// buffer size are layout-independent and never block a resume.
bool checkpoint_compatible(const CheckpointMeta& meta, int ranks,
                           PartitionScheme scheme, std::uint64_t block_size,
                           bool replicated);

}  // namespace retra::para
