// The distributed engine's contract: for any rank count, partition scheme,
// combining buffer size, lower-database mode and driver, the gathered
// distributed database is bit-identical to the sequential solver's.
#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "retra/game/awari_level.hpp"
#include "retra/game/graph_game.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/para/sim_build.hpp"
#include "retra/ra/builder.hpp"
#include "same_run.hpp"

namespace retra::para {
namespace {

game::GraphGame test_graph(std::uint64_t seed) {
  game::GraphGameConfig config;
  config.levels = 4;
  config.size0 = 14;
  config.growth = 2.2;
  config.edge_mean = 2.5;
  config.exit_mean = 1.2;
  config.seed = seed;
  return game::GraphGame(config);
}

TEST(Parallel, SingleRankMatchesSequentialAwari) {
  ParallelConfig config;
  config.ranks = 1;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, AwariMatchesSequential) {
  ParallelConfig config;
  config.ranks = GetParam();
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
}

TEST_P(RankSweep, GraphGameMatchesSequential) {
  const game::GraphGame graph = test_graph(77);
  ParallelConfig config;
  config.ranks = GetParam();
  const ParallelResult result =
      build_parallel(graph, graph.num_levels() - 1, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(graph, graph.num_levels() - 1));
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

class SchemeSweep : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(SchemeSweep, AwariMatchesSequentialUnderEveryPartition) {
  ParallelConfig config;
  config.ranks = 6;
  config.scheme = GetParam();
  config.block_size = 32;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeSweep,
                         ::testing::Values(PartitionScheme::kBlock,
                                           PartitionScheme::kCyclic,
                                           PartitionScheme::kBlockCyclic));

class CombineSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CombineSweep, CombiningBufferSizeNeverChangesTheAnswer) {
  ParallelConfig config;
  config.ranks = 4;
  config.combine_bytes = GetParam();
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 4, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 4));
}

INSTANTIATE_TEST_SUITE_P(Buffers, CombineSweep,
                         ::testing::Values(1, 10, 64, 256, 4096, 65536));

TEST(Parallel, ReplicatedLowerMatchesSequential) {
  ParallelConfig config;
  config.ranks = 5;
  config.replicate_lower = true;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
}

TEST(Parallel, ReplicatedNeverSendsLookups) {
  ParallelConfig config;
  config.ranks = 4;
  config.replicate_lower = true;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 4, config);
  for (const LevelRunInfo& info : result.levels) {
    EXPECT_EQ(info.total.lookups_remote, 0u);
    EXPECT_EQ(info.total.replies_sent, 0u);
  }
}

TEST(Parallel, ThreadDriverMatchesSequentialDriver) {
  // Both settings run the same rounds over a round-delivered world, so
  // everything a build reports is equal, not just its database.
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("retra_drivers_" + std::to_string(::getpid())))
          .string();
  auto same_run = [&](ParallelConfig sequential) {
    ParallelConfig threaded = sequential;
    threaded.use_threads = true;
    if (sequential.store.out_of_core()) {
      sequential.store.scratch_dir = scratch + "/sequential";
      threaded.store.scratch_dir = scratch + "/threaded";
    }
    const auto a = build_parallel(game::AwariFamily{}, 5, sequential);
    const auto b = build_parallel(game::AwariFamily{}, 5, threaded);
    expect_same_run(b, a);
  };
  for (const int ranks : {2, 4, 6}) {
    for (const int threads : {1, 2}) {
      for (const PartitionScheme scheme :
           {PartitionScheme::kCyclic, PartitionScheme::kBlock,
            PartitionScheme::kBlockCyclic}) {
        for (const bool replicate : {false, true}) {
          for (const bool out_of_core : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "P=" << ranks << " T=" << threads << " scheme "
                         << static_cast<int>(scheme) << " replicate "
                         << replicate << " out-of-core " << out_of_core);
            ParallelConfig config;
            config.ranks = ranks;
            config.threads_per_rank = threads;
            config.oversubscribe = true;
            config.scheme = scheme;
            config.block_size = 16;
            config.replicate_lower = replicate;
            // Below one block: every completed level spills and faults.
            if (out_of_core) config.store.working_set_bytes = 1024;
            same_run(config);
          }
        }
      }
    }
  }
  // The idle fault plan routes every frame through the reliable stack.
  ParallelConfig idle;
  idle.ranks = 4;
  idle.fault_plan.crash_rank = 0;
  idle.fault_plan.crash_level = 1000;
  SCOPED_TRACE("idle fault plan");
  same_run(idle);
  std::filesystem::remove_all(scratch);
}

TEST(Parallel, ThreadDriverGraphGame) {
  const game::GraphGame graph = test_graph(123);
  ParallelConfig config;
  config.ranks = 8;
  config.use_threads = true;
  config.combine_bytes = 64;
  const ParallelResult result =
      build_parallel(graph, graph.num_levels() - 1, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(graph, graph.num_levels() - 1));
}

TEST(Parallel, ManyRandomGraphsAcrossConfigs) {
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    const game::GraphGame graph = test_graph(seed);
    const auto expected =
        ra::build_database(graph, graph.num_levels() - 1);
    ParallelConfig config;
    config.ranks = 3 + static_cast<int>(seed % 4);
    config.scheme = seed % 2 ? PartitionScheme::kCyclic
                             : PartitionScheme::kBlock;
    config.combine_bytes = seed % 3 == 0 ? 1 : 128;
    config.replicate_lower = seed % 5 == 0;
    const ParallelResult result =
        build_parallel(graph, graph.num_levels() - 1, config);
    ASSERT_EQ(result.database->gather(), expected) << "seed " << seed;
  }
}

TEST(Parallel, StatsAccountForEveryAssignment) {
  ParallelConfig config;
  config.ranks = 4;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 5, config);
  for (const LevelRunInfo& info : result.levels) {
    EXPECT_EQ(info.total.assignments + info.total.zero_filled, info.size)
        << "level " << info.level;
  }
}

TEST(Parallel, CombiningReducesMessagesNotRecords) {
  ParallelConfig combined;
  combined.ranks = 6;
  combined.combine_bytes = 4096;
  ParallelConfig naive = combined;
  naive.combine_bytes = 1;
  const auto with = build_parallel(game::AwariFamily{}, 6, combined);
  const auto without = build_parallel(game::AwariFamily{}, 6, naive);
  // Identical record traffic...
  std::uint64_t records_with = 0, records_without = 0;
  for (const auto& info : with.levels) {
    records_with += info.total.updates_remote + info.total.lookups_remote +
                    info.total.replies_sent;
  }
  for (const auto& info : without.levels) {
    records_without += info.total.updates_remote +
                       info.total.lookups_remote + info.total.replies_sent;
  }
  EXPECT_EQ(records_with, records_without);
  // ...but far fewer messages: exactly the cluster model's counts, since
  // the host build and the simulated one run the same rounds.
  const sim::ClusterModel model;
  EXPECT_EQ(with.total_messages(),
            build_parallel_simulated(game::AwariFamily{}, 6, combined, model)
                .total_messages());
  EXPECT_EQ(without.total_messages(),
            build_parallel_simulated(game::AwariFamily{}, 6, naive, model)
                .total_messages());
  EXPECT_EQ(with.total_messages(), 4401u);
  EXPECT_EQ(without.total_messages(), 28333u);
}

TEST(Parallel, MemoryDividesAcrossRanks) {
  ParallelConfig small;
  small.ranks = 2;
  ParallelConfig large = small;
  large.ranks = 8;
  const auto a = build_parallel(game::AwariFamily{}, 6, small);
  const auto b = build_parallel(game::AwariFamily{}, 6, large);
  const auto max_bytes = [](const ParallelResult& r) {
    std::uint64_t best = 0;
    for (const auto& info : r.levels) {
      for (const std::uint64_t bytes : info.working_bytes) {
        best = std::max(best, bytes);
      }
    }
    return best;
  };
  // 4x the ranks -> roughly a quarter of the per-rank working set.
  EXPECT_LT(max_bytes(b) * 3, max_bytes(a));
}

TEST(DistributedDatabase, GatherReassemblesShards) {
  DistributedDatabase ddb(PartitionScheme::kCyclic, 1, 3, false);
  // Level of size 7, cyclic over 3 ranks.
  std::vector<std::vector<db::Value>> shards(3);
  const Partition partition = ddb.make_partition(7);
  std::vector<db::Value> values{10, -1, 2, 3, -4, 5, 6};
  for (int r = 0; r < 3; ++r) {
    shards[static_cast<std::size_t>(r)].resize(partition.local_size(r));
  }
  for (std::uint64_t i = 0; i < 7; ++i) {
    shards[static_cast<std::size_t>(partition.owner(i))]
          [partition.to_local(i)] = values[i];
  }
  ddb.push_level_shards(0, 7, std::move(shards));
  const db::Database gathered = ddb.gather();
  EXPECT_EQ(gathered.level(0), values);
}

}  // namespace
}  // namespace retra::para
