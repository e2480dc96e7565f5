// The out-of-core contract: a build under any working-set budget — even
// one so tight every completed level spills and thrashes — produces a
// database bit-identical to the in-memory build, with identical
// EngineStats, for every rank count and threads-per-rank; peak decoded
// residency respects the budget; and a crashed out-of-core build resumes
// from its checkpoint.  Lower-level reads are block-ordered: the batch
// read matches point reads on both stores and faults once per same-block
// run, and a build below its natural working set faults each block only
// a few times.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
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

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("retra_oc_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh scratch directory under the test's root (builds must not
  /// share scratch space).
  std::string scratch(const std::string& tag) {
    return dir_ + "/" + tag;
  }

  std::string dir_;
};

StoreConfig out_of_core(const std::string& scratch_dir,
                        std::uint64_t budget_bytes) {
  StoreConfig store;
  store.working_set_bytes = budget_bytes;
  store.scratch_dir = scratch_dir;
  store.block_positions = 200;  // small blocks: realistic fault traffic
  return store;
}

void expect_stats_eq(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.updates_remote, b.updates_remote);
  EXPECT_EQ(a.updates_local, b.updates_local);
  EXPECT_EQ(a.lookups_remote, b.lookups_remote);
  EXPECT_EQ(a.lookups_local, b.lookups_local);
  EXPECT_EQ(a.replies_sent, b.replies_sent);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.zero_filled, b.zero_filled);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct GridPoint {
  int ranks;
  int threads;
  std::uint64_t budget_bytes;
};

class OutOfCoreGrid : public OutOfCoreTest,
                      public ::testing::WithParamInterface<GridPoint> {};

TEST_P(OutOfCoreGrid, MatchesInMemoryBitForBitWithIdenticalStats) {
  const GridPoint point = GetParam();
  constexpr int kLevel = 6;

  ParallelConfig reference_config;
  reference_config.ranks = point.ranks;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, kLevel, reference_config);

  ParallelConfig config = reference_config;
  config.threads_per_rank = point.threads;
  config.oversubscribe = point.threads > 1;
  config.store = out_of_core(scratch("s"), point.budget_bytes);
  const ParallelResult constrained =
      build_parallel(game::AwariFamily{}, kLevel, config);

  // The database and every per-level, per-rank statistic are identical.
  EXPECT_EQ(constrained.database->gather(), reference.database->gather());
  ASSERT_EQ(constrained.levels.size(), reference.levels.size());
  for (std::size_t l = 0; l < reference.levels.size(); ++l) {
    expect_stats_eq(constrained.levels[l].total, reference.levels[l].total);
    ASSERT_EQ(constrained.levels[l].per_rank.size(),
              reference.levels[l].per_rank.size());
    for (std::size_t r = 0; r < reference.levels[l].per_rank.size(); ++r) {
      expect_stats_eq(constrained.levels[l].per_rank[r],
                      reference.levels[l].per_rank[r]);
    }
  }

  // Every non-empty completed level spilled on every rank (empty shards
  // — e.g. level 0's single position lands on one rank only — have
  // nothing to write), and residency respected the budget (blocks of 200
  // positions decode to at most 400 bytes, so every grid budget can hold
  // at least one block).
  for (int rank = 0; rank < config.ranks; ++rank) {
    const LevelStore& store = constrained.database->store(rank);
    std::uint64_t nonempty = 0;
    for (int l = 0; l <= kLevel; ++l) {
      if (store.shard_size(l) > 0) ++nonempty;
    }
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.levels_spilled, nonempty);
    EXPECT_LE(stats.peak_resident_bytes, point.budget_bytes);
  }

  // The persisted artifacts agree byte for byte.
  const std::string ref_path = dir_ + "/ref.rtradb";
  const std::string ooc_path = dir_ + "/ooc.rtradb";
  db::save(reference.database->gather(), ref_path);
  db::save(constrained.database->gather(), ooc_path);
  EXPECT_EQ(read_file(ref_path), read_file(ooc_path));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OutOfCoreGrid,
    ::testing::Values(
        GridPoint{2, 1, 1u << 20},  // everything fits once faulted
        GridPoint{2, 1, 4096},      // steady eviction pressure
        GridPoint{2, 1, 512},       // barely more than one block: thrash
        GridPoint{2, 2, 4096},      // T > 1: concurrent fault-in
        GridPoint{2, 2, 512},
        GridPoint{4, 1, 4096},
        GridPoint{4, 1, 512},
        GridPoint{4, 2, 1024}));

TEST_F(OutOfCoreTest, TightBudgetActuallyFaultsAndEvicts) {
  ParallelConfig reference_config;
  reference_config.ranks = 2;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 6, reference_config);
  for (const int threads : {1, 2}) {
    ParallelConfig config = reference_config;
    config.threads_per_rank = threads;
    config.oversubscribe = threads > 1;
    // 128 bytes is smaller than one decoded 200-position block, so the
    // cache can only ever hold the single most recent (oversized) block
    // and every cross-block access evicts.
    config.store = out_of_core(scratch("t" + std::to_string(threads)), 128);
    const ParallelResult result =
        build_parallel(game::AwariFamily{}, 6, config);
    EXPECT_EQ(result.database->gather(), reference.database->gather())
        << "T=" << threads;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    for (std::size_t l = 0; l < result.levels.size(); ++l) {
      expect_stats_eq(result.levels[l].total, reference.levels[l].total);
      faults += result.levels[l].store_total.faults;
      evictions += result.levels[l].store_total.evictions;
    }
    EXPECT_GT(faults, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(result.levels.back().store_total.spill_bytes, 0u);
  }
}

TEST_F(OutOfCoreTest, ReplicatedModeSpillsFullCopies) {
  ParallelConfig reference_config;
  reference_config.ranks = 3;
  reference_config.replicate_lower = true;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 5, reference_config);

  ParallelConfig config = reference_config;
  config.store = out_of_core(scratch("s"), 2048);
  const ParallelResult constrained =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_EQ(constrained.database->gather(), reference.database->gather());
  for (std::size_t l = 0; l < reference.levels.size(); ++l) {
    expect_stats_eq(constrained.levels[l].total, reference.levels[l].total);
  }
}

TEST_F(OutOfCoreTest, SpilledDrainQueueChangesNothing) {
  ParallelConfig reference_config;
  reference_config.ranks = 2;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 6, reference_config);

  ParallelConfig config = reference_config;
  config.store = out_of_core(scratch("s"), 4096);
  config.store.queue_mem_entries = 4;  // force run-file spills constantly
  const ParallelResult constrained =
      build_parallel(game::AwariFamily{}, 6, config);

  EXPECT_EQ(constrained.database->gather(), reference.database->gather());
  for (std::size_t l = 0; l < reference.levels.size(); ++l) {
    expect_stats_eq(constrained.levels[l].total, reference.levels[l].total);
  }
  std::uint64_t spilled_records = 0;
  for (int rank = 0; rank < config.ranks; ++rank) {
    spilled_records += constrained.database->store(rank)
                           .stats()
                           .queue_spilled_records;
  }
  EXPECT_GT(spilled_records, 0u);
}

TEST_F(OutOfCoreTest, CrashedSpilledBuildResumesFromCheckpoint) {
  // Kill-and-resume drill: rank 1 dies while building level 4 of an
  // out-of-core build; a follow-up run with a fresh scratch directory
  // resumes from the checkpoint (re-spilling levels 0..3 on load) and
  // finishes identically to the sequential solver.
  ParallelConfig config;
  config.ranks = 3;
  config.checkpoint_dir = dir_ + "/ck";
  config.store = out_of_core(scratch("s1"), 2048);
  config.fault_plan.crash_rank = 1;
  config.fault_plan.crash_level = 4;
  const ParallelResult crashed =
      build_parallel(game::AwariFamily{}, 6, config);
  ASSERT_FALSE(crashed.completed());
  EXPECT_EQ(crashed.aborted_level, 4);
  EXPECT_EQ(crashed.crashed_rank, 1);

  config.fault_plan = msg::FaultPlan{};
  config.store = out_of_core(scratch("s2"), 2048);
  const ParallelResult resumed =
      build_parallel(game::AwariFamily{}, 6, config);
  ASSERT_TRUE(resumed.completed());
  ASSERT_FALSE(resumed.levels.empty());
  EXPECT_EQ(resumed.levels.front().level, 4);  // levels 0..3 were resumed
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
  // The resumed store spilled every non-empty shard: the checkpointed
  // levels 0..3 on load, then 4..6 as they completed.
  for (int rank = 0; rank < config.ranks; ++rank) {
    const LevelStore& store = resumed.database->store(rank);
    std::uint64_t nonempty = 0;
    for (int l = 0; l <= 6; ++l) {
      if (store.shard_size(l) > 0) ++nonempty;
    }
    EXPECT_EQ(store.stats().levels_spilled, nonempty);
  }
}

TEST_F(OutOfCoreTest, ThreadDriverAndAsyncDriverMatchUnderBudget) {
  ParallelConfig reference_config;
  reference_config.ranks = 3;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 5, reference_config);

  for (const bool async : {false, true}) {
    ParallelConfig config = reference_config;
    config.use_threads = true;
    config.async = async;
    config.store =
        out_of_core(scratch(async ? "async" : "bsp"), 2048);
    const ParallelResult constrained =
        build_parallel(game::AwariFamily{}, 5, config);
    EXPECT_EQ(constrained.database->gather(), reference.database->gather())
        << (async ? "async" : "bsp");
  }
}

// ----------------------------------------------------------------------
// Block-ordered lower-level reads.

/// A shard whose values vary inside every block.
std::vector<db::Value> patterned_shard(std::uint64_t size) {
  std::vector<db::Value> shard(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    shard[i] = static_cast<db::Value>(static_cast<int>(i % 13) - 6);
  }
  return shard;
}

TEST_F(OutOfCoreTest, BatchReadMatchesPointReadsOnBothStores) {
  constexpr std::uint64_t kSize = 1000;  // 8 blocks of 128, the last short
  const std::vector<db::Value> shard = patterned_shard(kSize);
  StoreConfig file_config = out_of_core(scratch("s"), 1u << 20);
  file_config.block_positions = 128;
  std::vector<std::unique_ptr<LevelStore>> stores;
  stores.push_back(make_level_store(StoreConfig{}, 0));
  stores.push_back(make_level_store(file_config, 0));

  // Ascending sets crossing block boundaries: single-position runs at
  // both edges of a block, repeated locals, long runs, the short tail.
  std::vector<std::vector<std::uint64_t>> sets = {
      {0, 127, 128, 129, 255, 256, 999},
      {5, 5, 6, 300, 300, 301, 640, 641, 900},
      {},
  };
  for (std::uint64_t local = 1; local < kSize; local += 3) {
    sets.back().push_back(local);
  }
  for (const auto& store : stores) {
    store->push_shard(shard);
    for (const std::vector<std::uint64_t>& locals : sets) {
      std::vector<db::Value> out(locals.size());
      store->values(0, locals, out);
      for (std::size_t i = 0; i < locals.size(); ++i) {
        db::Value single;
        store->values(0, {&locals[i], 1}, {&single, 1});
        EXPECT_EQ(out[i], shard[locals[i]]) << "local " << locals[i];
        EXPECT_EQ(out[i], single) << "local " << locals[i];
      }
    }
  }
}

TEST_F(OutOfCoreTest, BatchReadFaultsOncePerSameBlockRun) {
  // A budget below one block: the cache holds only the block it served
  // last, so every run of a different block faults.
  StoreConfig config = out_of_core(scratch("s"), 1);
  config.block_positions = 128;
  FileLevelStore store(config, 0);
  store.push_shard(patterned_shard(1000));

  // Runs in blocks 0, 1, 3 and 7.
  const std::vector<std::uint64_t> locals = {3,   4,   100, 130, 131,
                                             200, 400, 401, 402, 999};
  std::vector<db::Value> out(locals.size());
  store.values(0, locals, out);
  EXPECT_EQ(store.stats().faults, 4u);
  store.values(0, locals, out);  // block 7 is the one resident block
  EXPECT_EQ(store.stats().faults, 8u);
  const std::vector<std::uint64_t> tail = {900, 998, 999};
  std::vector<db::Value> tail_out(tail.size());
  store.values(0, tail, tail_out);
  EXPECT_EQ(store.stats().faults, 8u);
  EXPECT_EQ(tail_out[2], out.back());
}

TEST_F(OutOfCoreTest, BlockOrderedLookupsFaultEachBlockAFewTimes) {
  // Level 10 on P=2 under the sequential BSP driver, with 128-position
  // blocks and a 4 KB budget: far below the lower-level blocks each level
  // touches, so reading capture exits in scan order would fault on
  // nearly every lookup.
  constexpr int kLevel = 10;
  constexpr std::uint32_t kBlock = 128;
  ParallelConfig reference_config;
  reference_config.ranks = 2;
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, kLevel, reference_config);

  ParallelConfig config = reference_config;
  config.store = out_of_core(scratch("s"), 4096);
  config.store.block_positions = kBlock;
  const ParallelResult constrained =
      build_parallel(game::AwariFamily{}, kLevel, config);

  EXPECT_EQ(constrained.database->gather(), reference.database->gather());
  ASSERT_EQ(constrained.levels.size(), reference.levels.size());
  std::uint64_t faults = 0;
  std::uint64_t blocks = 0;  // lower-level blocks each level could touch
  for (std::size_t l = 0; l < reference.levels.size(); ++l) {
    const LevelRunInfo& info = constrained.levels[l];
    EXPECT_EQ(info.rounds, reference.levels[l].rounds);
    expect_stats_eq(info.total, reference.levels[l].total);
    EXPECT_EQ(info.work_total.counts, reference.levels[l].work_total.counts);
    for (std::size_t r = 0; r < info.per_rank.size(); ++r) {
      expect_stats_eq(info.per_rank[r], reference.levels[l].per_rank[r]);
    }
    faults += info.store_total.faults;
    for (int rank = 0; rank < config.ranks; ++rank) {
      const LevelStore& store = constrained.database->store(rank);
      for (int lower = 0; lower < info.level; ++lower) {
        blocks += (store.shard_size(lower) + kBlock - 1) / kBlock;
      }
    }
  }
  EXPECT_GT(faults, 0u);
  // Each level reads every block it needs about once (2751 faults against
  // 3964 blocks here); reading exits in scan order faulted 96k times.
  EXPECT_LE(faults, 2 * blocks) << "blocks " << blocks;
}

TEST_F(OutOfCoreTest, LocalReadCounterCountsEveryLookupOnce) {
#if RETRA_METRICS_ENABLED
  for (const bool file_backed : {false, true}) {
    ParallelConfig config;
    config.ranks = 3;
    config.threads_per_rank = 2;
    config.oversubscribe = true;
    if (file_backed) config.store = out_of_core(scratch("s"), 2048);
    const obs::Snapshot before = obs::snapshot();
    const ParallelResult result =
        build_parallel(game::AwariFamily{}, 6, config);
    const obs::Snapshot delta = obs::snapshot() - before;
    std::uint64_t reads = 0;
    for (const LevelRunInfo& info : result.levels) {
      reads += info.total.lookups_local + info.total.replies_sent;
    }
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(delta[obs::Id::kDistDbLocalReads].value, reads)
        << (file_backed ? "file" : "memory");
  }
#else
  GTEST_SKIP() << "metrics compiled out";
#endif
}

}  // namespace
}  // namespace retra::para
