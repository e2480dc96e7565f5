#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <vector>

#include "retra/db/db_io.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/checkpoint.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/ra/builder.hpp"

namespace retra::para {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("retra_ckpt_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Rank `rank`'s shard file of level `level`.
  std::string shard(int level, int rank) const {
    return dir_ + "/level_" + std::to_string(level) + "_rank_" +
           std::to_string(rank) + ".rtradb";
  }

  std::string dir_;
};

/// XORs the byte at `offset` of the file with `mask`.
void flip_byte(const std::string& path, std::uint64_t offset, char mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto at = static_cast<std::streamoff>(offset);
  char byte;
  file.seekg(at);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ mask);
  file.seekp(at);
  file.write(&byte, 1);
}

TEST_F(CheckpointTest, SaveAndLoadRoundTrip) {
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_;
  const auto result = build_parallel(game::AwariFamily{}, 4, config);

  const CheckpointLoad loaded = checkpoint_load(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.meta.ranks, 3);
  EXPECT_EQ(loaded.meta.levels, 5);
  EXPECT_EQ(loaded.database->gather(), result.database->gather());

  // The directory is the manifest plus one one-level RTRADB03 file per
  // (level, rank), each holding that rank's shard.
  int shards = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename() == "manifest.txt") continue;
    EXPECT_EQ(entry.path().extension(), ".rtradb") << entry.path();
    const db::FileIndex index = db::scan(entry.path().string());
    ASSERT_TRUE(index.ok) << entry.path() << ": " << index.error;
    EXPECT_EQ(index.version, 3);
    EXPECT_EQ(index.levels.size(), 1u);
    ++shards;
  }
  EXPECT_EQ(shards, 5 * 3);
  for (int rank = 0; rank < 3; ++rank) {
    const db::LoadResult file = db::load(shard(4, rank));
    ASSERT_TRUE(file.ok) << file.error;
    EXPECT_EQ(file.database.level(0),
              result.database->read_rank_shard(4, rank));
  }
}

TEST_F(CheckpointTest, ResumeContinuesWhereItStopped) {
  // First run builds to level 3; the "resumed" run asks for level 6 and
  // must produce the same database as a from-scratch build.
  ParallelConfig config;
  config.ranks = 4;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  const auto resumed = build_parallel(game::AwariFamily{}, 6, config);
  // Only levels 4..6 were built this time.
  EXPECT_EQ(resumed.levels.size(), 3u);
  EXPECT_EQ(resumed.levels.front().level, 4);
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
}

TEST_F(CheckpointTest, FullyCheckpointedBuildIsANoOp) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 4, config);
  const auto again = build_parallel(game::AwariFamily{}, 4, config);
  EXPECT_TRUE(again.levels.empty());
  EXPECT_EQ(again.database->gather(),
            ra::build_database(game::AwariFamily{}, 4));
}

TEST_F(CheckpointTest, IncompatibleConfigurationStartsFresh) {
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  ParallelConfig other = config;
  other.ranks = 5;  // different layout: checkpoint must be ignored
  const auto result = build_parallel(game::AwariFamily{}, 3, other);
  EXPECT_EQ(result.levels.size(), 4u);  // rebuilt everything
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 3));
}

TEST_F(CheckpointTest, CorruptedLevelFileIsRejected) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  // Flip a byte in the middle of a level 2 shard file.
  const std::string victim = shard(2, 1);
  flip_byte(victim, fs::file_size(victim) / 2, 0x40);

  const CheckpointLoad loaded = checkpoint_load(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("level"), std::string::npos);
}

TEST_F(CheckpointTest, MissingDirectoryReportsCleanly) {
  const CheckpointLoad loaded = checkpoint_load(dir_ + "/nonexistent");
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.error.empty());
}

TEST_F(CheckpointTest, MalformedManifestRejected) {
  fs::create_directories(dir_);
  std::ofstream(dir_ + "/manifest.txt") << "not a manifest";
  const CheckpointLoad loaded = checkpoint_load(dir_);
  EXPECT_FALSE(loaded.ok);
}

TEST_F(CheckpointTest, ReplicatedModeRoundTrips) {
  ParallelConfig config;
  config.ranks = 3;
  config.replicate_lower = true;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);
  const CheckpointLoad loaded = checkpoint_load(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_TRUE(loaded.meta.replicated);
  EXPECT_EQ(loaded.database->gather(),
            ra::build_database(game::AwariFamily{}, 3));
}

TEST_F(CheckpointTest, TruncatedLevelFileIsRejected) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  const std::string victim = shard(1, 0);
  const auto size = fs::file_size(victim);
  fs::resize_file(victim, size / 2);

  const CheckpointLoad loaded = checkpoint_load(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.error.empty());
}

TEST_F(CheckpointTest, BitFlipInChecksumRegionIsRejected) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  // The 8 bytes before a shard's payload are its directory checksum; a
  // flipped checksum must be caught exactly like flipped payload.
  const std::string victim = shard(3, 1);
  const db::FileIndex index = db::scan(victim);
  ASSERT_TRUE(index.ok) << index.error;
  flip_byte(victim, index.levels[0].payload_offset - 4, 0x01);

  const CheckpointLoad loaded = checkpoint_load(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("checksum"), std::string::npos)
      << loaded.error;
}

TEST_F(CheckpointTest, ManifestLevelCountMismatchIsRejected) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  // The manifest claims 4 levels; remove one of the referenced files.
  fs::remove(shard(2, 1));
  const CheckpointLoad loaded = checkpoint_load(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("missing"), std::string::npos) << loaded.error;
}

// Fuzz: arbitrary truncations and single-bit flips anywhere in a shard
// file must always produce ok == false with a diagnosis — never a crash,
// never a silently adopted corrupted database.
TEST_F(CheckpointTest, CorruptionFuzzAlwaysFailsCleanly) {
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  const std::string victim = shard(2, 1);
  std::vector<char> pristine;
  {
    std::ifstream in(victim, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(pristine.empty());
  const auto restore = [&](const std::vector<char>& bytes) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  std::mt19937_64 rng(0xf22);
  for (int round = 0; round < 24; ++round) {
    std::vector<char> mutated = pristine;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] =
        static_cast<char>(mutated[pos] ^ (1 << (rng() % 8)));
    restore(mutated);
    const CheckpointLoad loaded = checkpoint_load(dir_);
    EXPECT_FALSE(loaded.ok) << "bit flip at " << pos << " was accepted";
    EXPECT_FALSE(loaded.error.empty());
  }
  for (int round = 0; round < 8; ++round) {
    std::vector<char> mutated = pristine;
    mutated.resize(rng() % pristine.size());
    restore(mutated);
    const CheckpointLoad loaded = checkpoint_load(dir_);
    EXPECT_FALSE(loaded.ok)
        << "truncation to " << mutated.size() << " was accepted";
    EXPECT_FALSE(loaded.error.empty());
  }

  restore(pristine);
  EXPECT_TRUE(checkpoint_load(dir_).ok);
}

// The combining buffer size is a tuning knob, not a layout parameter: a
// resume with a different one must pick the checkpoint up.
TEST_F(CheckpointTest, DifferentCombineBytesStillResumes) {
  ParallelConfig config;
  config.ranks = 3;
  config.combine_bytes = 4096;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  ParallelConfig retuned = config;
  retuned.combine_bytes = 64;
  const auto resumed = build_parallel(game::AwariFamily{}, 5, retuned);
  EXPECT_EQ(resumed.levels.size(), 2u);  // only levels 4..5 were built
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
}

TEST_F(CheckpointTest, DifferentBlockSizeIsRejectedForBlockCyclic) {
  ParallelConfig config;
  config.ranks = 3;
  config.scheme = PartitionScheme::kBlockCyclic;
  config.block_size = 16;
  config.checkpoint_dir = dir_;
  build_parallel(game::AwariFamily{}, 3, config);

  ParallelConfig other = config;
  other.block_size = 32;  // different layout: checkpoint must be ignored
  const auto result = build_parallel(game::AwariFamily{}, 3, other);
  EXPECT_EQ(result.levels.size(), 4u);  // rebuilt everything
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 3));
}

// A shard file at the wrong rank must be diagnosed, not abort the load
// in push_level_shards: awari level 3 splits 122/121/121 over P = 3.
TEST_F(CheckpointTest, MisplacedShardFileIsDiagnosed) {
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_;
  const auto result = build_parallel(game::AwariFamily{}, 3, config);
  ASSERT_EQ(result.database->partition(3).local_size(0), 122u);
  ASSERT_EQ(result.database->partition(3).local_size(1), 121u);

  fs::rename(shard(3, 0), dir_ + "/swap");
  fs::rename(shard(3, 1), shard(3, 0));
  fs::rename(dir_ + "/swap", shard(3, 1));
  const CheckpointLoad swapped = checkpoint_load(dir_);
  EXPECT_FALSE(swapped.ok);
  EXPECT_NE(swapped.error.find("partition in level 3"), std::string::npos)
      << swapped.error;

  // A file holding anything but one level is not a shard either.
  db::save(ra::build_database(game::AwariFamily{}, 1), shard(3, 0));
  const CheckpointLoad two_levels = checkpoint_load(dir_);
  EXPECT_FALSE(two_levels.ok);
  EXPECT_NE(two_levels.error.find("holds 2 levels"), std::string::npos)
      << two_levels.error;
}

// Manifests of the formats before RTRADB03 shards name files this code
// no longer reads: reported as unusable, and the build starts fresh.
TEST_F(CheckpointTest, PreShardManifestStartsFresh) {
  ParallelConfig config;
  config.ranks = 2;
  config.checkpoint_dir = dir_;
  for (int version : {1, 2}) {
    fs::create_directories(dir_);
    std::ofstream(dir_ + "/manifest.txt")
        << "retra-checkpoint " << version
        << "\nranks 2\nscheme cyclic\nblock 1024\nreplicated 0\nlevels 2\n"
        << (version == 2 ? "combine 4096\n" : "");
    const CheckpointLoad loaded = checkpoint_load(dir_);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.error, "checkpoint format " + std::to_string(version) +
                                " predates RTRADB03 shards");

    const auto result = build_parallel(game::AwariFamily{}, 3, config);
    EXPECT_EQ(result.levels.size(), 4u) << version;  // rebuilt everything
    EXPECT_EQ(result.database->gather(),
              ra::build_database(game::AwariFamily{}, 3));
    fs::remove_all(dir_);
  }
}

#if RETRA_METRICS_ENABLED
// checkpoint.bytes_written counts shard files and manifests.  Every level
// rewrites the manifest, so a build's delta is the directory's bytes plus
// the manifests it replaced (all of one length for levels 1..4).
TEST_F(CheckpointTest, BytesWrittenCountsShardsAndManifests) {
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_;
  const obs::Snapshot before = obs::snapshot();
  build_parallel(game::AwariFamily{}, 3, config);
  const obs::Snapshot delta = obs::snapshot() - before;

  std::uint64_t directory_bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    directory_bytes += entry.file_size();
  }
  const std::uint64_t manifest_bytes = fs::file_size(dir_ + "/manifest.txt");
  EXPECT_EQ(delta[obs::Id::kCheckpointBytesWritten].value,
            directory_bytes + 3 * manifest_bytes);
}
#endif  // RETRA_METRICS_ENABLED

TEST(CheckpointCompat, MatchRules) {
  CheckpointMeta meta;
  meta.ranks = 4;
  meta.scheme = PartitionScheme::kCyclic;
  meta.block_size = 64;
  meta.replicated = false;
  EXPECT_TRUE(checkpoint_compatible(meta, 4, PartitionScheme::kCyclic, 999,
                                    false));  // block irrelevant for cyclic
  EXPECT_FALSE(checkpoint_compatible(meta, 8, PartitionScheme::kCyclic, 64,
                                     false));
  EXPECT_FALSE(checkpoint_compatible(meta, 4, PartitionScheme::kBlock, 64,
                                     false));
  EXPECT_FALSE(checkpoint_compatible(meta, 4, PartitionScheme::kCyclic, 64,
                                     true));
  meta.scheme = PartitionScheme::kBlockCyclic;
  EXPECT_TRUE(checkpoint_compatible(meta, 4, PartitionScheme::kBlockCyclic,
                                    64, false));
  EXPECT_FALSE(checkpoint_compatible(meta, 4, PartitionScheme::kBlockCyclic,
                                     128, false));
}

}  // namespace
}  // namespace retra::para
