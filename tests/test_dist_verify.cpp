#include <gtest/gtest.h>

#include "retra/game/awari_level.hpp"
#include "retra/game/kalah_level.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/para/dist_verify.hpp"
#include "retra/para/parallel_solver.hpp"

namespace retra::para {
namespace {

TEST(DistVerify, CleanDatabasePasses) {
  ParallelConfig config;
  config.ranks = 4;
  const auto result = build_parallel(game::AwariFamily{}, 6, config);
  msg::RoundWorld world(config.ranks);
  for (int level = 0; level <= 6; ++level) {
    const game::AwariLevel game(level);
    const VerifySummary summary = verify_level_distributed(
        game, level, *result.database, world);
    ASSERT_TRUE(summary.ok()) << "level " << level << ": "
                              << summary.first_error;
    ASSERT_EQ(summary.positions_checked, idx::level_size(level));
  }
}

TEST(DistVerify, KalahWithSameMoverExits) {
  ParallelConfig config;
  config.ranks = 3;
  const auto result = build_parallel(game::KalahFamily{}, 6, config);
  msg::RoundWorld world(config.ranks);
  for (int level = 0; level <= 6; ++level) {
    const game::KalahLevel game(level);
    const VerifySummary summary = verify_level_distributed(
        game, level, *result.database, world);
    ASSERT_TRUE(summary.ok()) << summary.first_error;
  }
}

TEST(DistVerify, DetectsADoctoredValue) {
  // Rebuild, then flip one stored value through the raw storage and watch
  // the distributed pass localise an inconsistency.  (The corrupted
  // position itself and/or its neighbours fail; a flip is never silent.)
  ParallelConfig config;
  config.ranks = 4;
  auto result = build_parallel(game::AwariFamily{}, 5, config);
  auto& ddb = *result.database;

  // Corrupt: rewrite level 5 with one value changed by rebuilding the
  // distributed database from doctored shards.
  DistributedDatabase doctored(ddb.scheme(), ddb.block_size(), ddb.ranks(),
                               ddb.replicated());
  for (int level = 0; level <= 5; ++level) {
    std::vector<std::vector<db::Value>> storage;
    for (int rank = 0; rank < ddb.ranks(); ++rank) {
      storage.push_back(ddb.read_rank_shard(level, rank));
    }
    if (level == 5) {
      // Find a nonempty shard and nudge a value out of range of truth.
      for (auto& shard : storage) {
        if (shard.empty()) continue;
        shard[shard.size() / 2] =
            static_cast<db::Value>(shard[shard.size() / 2] == 5 ? -5 : 5);
        break;
      }
    }
    doctored.push_level_shards(level, idx::level_size(level),
                               std::move(storage));
  }

  msg::RoundWorld world(config.ranks);
  std::uint64_t failures = 0;
  for (int level = 0; level <= 5; ++level) {
    const game::AwariLevel game(level);
    failures += verify_level_distributed(game, level, doctored, world)
                    .failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(DistVerify, WorksWithThreadsAndTinyBuffers) {
  ParallelConfig config;
  config.ranks = 6;
  const auto result = build_parallel(game::AwariFamily{}, 5, config);
  msg::RoundWorld world(config.ranks);
  const game::AwariLevel game(5);
  const VerifySummary summary = verify_level_distributed(
      game, 5, *result.database, world, /*combine_bytes=*/1,
      /*use_threads=*/true);
  EXPECT_TRUE(summary.ok()) << summary.first_error;
}

TEST(DistVerify, ReplicatedDatabaseNeedsNoMessages) {
  ParallelConfig config;
  config.ranks = 3;
  config.replicate_lower = true;
  const auto result = build_parallel(game::AwariFamily{}, 4, config);
  msg::RoundWorld world(config.ranks);
  const game::AwariLevel game(4);
  const VerifySummary summary =
      verify_level_distributed(game, 4, *result.database, world);
  EXPECT_TRUE(summary.ok()) << summary.first_error;
  // Every probe resolves locally against the replicas.
  std::uint64_t sent = 0;
  for (int r = 0; r < config.ranks; ++r) {
    sent += world.endpoint(r).transport_stats().messages_sent;
  }
  EXPECT_EQ(sent, 0u);
}

}  // namespace
}  // namespace retra::para
