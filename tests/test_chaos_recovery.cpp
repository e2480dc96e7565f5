// The chaos suite: whole parallel builds run over a transport that drops,
// duplicates, reorders, delays and corrupts frames — and the gathered
// database must still be bit-identical to the sequential solver's, for
// every fault plan, partition scheme and driver.  Scheduled rank crashes
// must abort the build cleanly and a follow-up invocation must resume
// from the checkpoint directory and finish with the exact same bits.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "retra/game/awari_level.hpp"
#include "retra/game/kalah_level.hpp"
#include "retra/msg/fault_comm.hpp"
#include "retra/para/dist_verify.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/ra/builder.hpp"

namespace retra::para {
namespace {

namespace fs = std::filesystem;

struct NamedPlan {
  const char* name;
  msg::FaultPlan plan;
};

std::vector<NamedPlan> chaos_plans() {
  std::vector<NamedPlan> plans;
  msg::FaultPlan p;
  p.seed = 0xc4a05;
  p.drop = 0.2;
  plans.push_back({"drop", p});
  p = {};
  p.seed = 0xc4a05;
  p.duplicate = 0.2;
  plans.push_back({"duplicate", p});
  p = {};
  p.seed = 0xc4a05;
  p.reorder = 0.2;
  plans.push_back({"reorder", p});
  p = {};
  p.seed = 0xc4a05;
  p.delay = 0.2;
  p.max_delay_ticks = 8;
  plans.push_back({"delay", p});
  p = {};
  p.seed = 0xc4a05;
  p.drop = 0.1;
  p.duplicate = 0.1;
  p.reorder = 0.1;
  p.delay = 0.1;
  p.max_delay_ticks = 8;
  p.corrupt = 0.05;
  plans.push_back({"everything", p});
  return plans;
}

ParallelConfig chaos_config(const msg::FaultPlan& plan,
                            PartitionScheme scheme, bool async) {
  ParallelConfig config;
  config.ranks = 4;
  config.scheme = scheme;
  config.block_size = 16;
  config.combine_bytes = 128;
  config.use_threads = true;
  config.async = async;
  config.fault_plan = plan;
  return config;
}

// Every fault plan x partition scheme x driver, for two games: the
// database that comes out must be the sequential solver's, bit for bit.
TEST(Chaos, AwariSolvesAreExactUnderEveryPlanSchemeAndDriver) {
  const auto expected = ra::build_database(game::AwariFamily{}, 4);
  for (const NamedPlan& named : chaos_plans()) {
    for (PartitionScheme scheme :
         {PartitionScheme::kCyclic, PartitionScheme::kBlockCyclic}) {
      for (bool async : {false, true}) {
        const ParallelConfig config =
            chaos_config(named.plan, scheme, async);
        const ParallelResult result =
            build_parallel(game::AwariFamily{}, 4, config);
        ASSERT_TRUE(result.completed());
        ASSERT_EQ(result.database->gather(), expected)
            << "plan=" << named.name << " seed=" << named.plan.seed
            << " scheme=" << scheme_name(scheme)
            << " driver=" << (async ? "async" : "bsp");
      }
    }
  }
}

TEST(Chaos, KalahSolvesAreExactUnderEveryPlanSchemeAndDriver) {
  const auto expected = ra::build_database(game::KalahFamily{}, 4);
  for (const NamedPlan& named : chaos_plans()) {
    for (PartitionScheme scheme :
         {PartitionScheme::kCyclic, PartitionScheme::kBlockCyclic}) {
      for (bool async : {false, true}) {
        const ParallelConfig config =
            chaos_config(named.plan, scheme, async);
        const ParallelResult result =
            build_parallel(game::KalahFamily{}, 4, config);
        ASSERT_TRUE(result.completed());
        ASSERT_EQ(result.database->gather(), expected)
            << "plan=" << named.name << " seed=" << named.plan.seed
            << " scheme=" << scheme_name(scheme)
            << " driver=" << (async ? "async" : "bsp");
      }
    }
  }
}

// The sequential driver makes the entire chaotic run deterministic: two
// builds from the same seed report identical fault counters.
TEST(Chaos, SequentialDriverReplaysFaultCountersFromSeed) {
  msg::FaultPlan plan;
  plan.seed = 0xabcde;
  plan.drop = 0.15;
  plan.duplicate = 0.1;
  plan.corrupt = 0.1;
  ParallelConfig config;
  config.ranks = 3;
  config.combine_bytes = 64;
  config.fault_plan = plan;
  const auto a = build_parallel(game::AwariFamily{}, 4, config);
  const auto b = build_parallel(game::AwariFamily{}, 4, config);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].faults.dropped, b.levels[i].faults.dropped);
    EXPECT_EQ(a.levels[i].faults.duplicated, b.levels[i].faults.duplicated);
    EXPECT_EQ(a.levels[i].faults.corrupted, b.levels[i].faults.corrupted);
    EXPECT_EQ(a.levels[i].faults.forwarded, b.levels[i].faults.forwarded);
    EXPECT_EQ(a.levels[i].reliability.retries,
              b.levels[i].reliability.retries);
    EXPECT_EQ(a.levels[i].reliability.delivered,
              b.levels[i].reliability.delivered);
  }
  EXPECT_EQ(a.database->gather(), b.database->gather());
}

TEST(Chaos, FaultFreeRunReportsAllZeroCounters) {
  ParallelConfig config;
  config.ranks = 4;
  const auto result = build_parallel(game::AwariFamily{}, 4, config);
  for (const LevelRunInfo& info : result.levels) {
    EXPECT_EQ(info.faults.forwarded, 0u);
    EXPECT_EQ(info.faults.dropped, 0u);
    EXPECT_EQ(info.faults.duplicated, 0u);
    EXPECT_EQ(info.faults.reordered, 0u);
    EXPECT_EQ(info.faults.delayed, 0u);
    EXPECT_EQ(info.faults.corrupted, 0u);
    EXPECT_EQ(info.reliability.data_sent, 0u);
    EXPECT_EQ(info.reliability.retries, 0u);
    EXPECT_EQ(info.reliability.delivered, 0u);
    EXPECT_EQ(info.reliability.duplicates_suppressed, 0u);
    EXPECT_EQ(info.reliability.corrupt_dropped, 0u);
  }
}

// A plan whose only scheduled event never fires (crash far beyond the
// last level) still routes everything through the reliability stack: the
// protocol must be pure overhead — no retries, no duplicates, and the
// same database — under either driver, at a level where one rank sends
// far more frames per superstep than the retry timer's first interval.
TEST(Chaos, IdleReliabilityStackIsExactAndRetryFree) {
  msg::FaultPlan plan;
  plan.crash_rank = 0;
  plan.crash_level = 1000;
  const db::Database expected = ra::build_database(game::AwariFamily{}, 8);
  std::uint64_t frames[2] = {0, 0};
  for (const bool threads : {false, true}) {
    SCOPED_TRACE(threads ? "threaded driver" : "sequential driver");
    ParallelConfig config;
    config.ranks = 4;
    config.fault_plan = plan;
    config.use_threads = threads;
    const auto result = build_parallel(game::AwariFamily{}, 8, config);
    EXPECT_EQ(result.database->gather(), expected);
    std::uint64_t data_sent = 0;
    for (const LevelRunInfo& info : result.levels) {
      EXPECT_EQ(info.faults.dropped, 0u) << "level " << info.level;
      EXPECT_EQ(info.faults.corrupted, 0u) << "level " << info.level;
      EXPECT_EQ(info.reliability.retries, 0u) << "level " << info.level;
      EXPECT_EQ(info.reliability.duplicates_suppressed, 0u)
          << "level " << info.level;
      EXPECT_EQ(info.reliability.corrupt_dropped, 0u)
          << "level " << info.level;
      EXPECT_EQ(info.reliability.data_sent, info.reliability.delivered)
          << "level " << info.level;
      data_sent += info.reliability.data_sent;
      frames[threads ? 1 : 0] += info.faults.forwarded;
    }
    EXPECT_GT(data_sent, 0u);
  }
  // The two drivers run the same rounds, so they send the same frames.
  EXPECT_EQ(frames[0], frames[1]);
}

TEST(Chaos, InjectedFaultsShowUpInTheLevelCounters) {
  msg::FaultPlan plan;
  plan.seed = 0x77;
  plan.drop = 0.2;
  ParallelConfig config;
  config.ranks = 4;
  config.combine_bytes = 64;
  config.fault_plan = plan;
  const auto result = build_parallel(game::AwariFamily{}, 4, config);
  std::uint64_t dropped = 0, retries = 0, delivered = 0;
  for (const LevelRunInfo& info : result.levels) {
    dropped += info.faults.dropped;
    retries += info.reliability.retries;
    delivered += info.reliability.delivered;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(delivered, 0u);
}

class CrashDrill : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("retra_chaos_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Levels 0..max of the resumed database re-audited under the
  // distributed-memory discipline.
  template <typename Family>
  void verify_all_levels(const Family& family, int max_level,
                         const DistributedDatabase& ddb) {
    msg::RoundWorld world(ddb.ranks());
    for (int level = 0; level <= max_level; ++level) {
      const VerifySummary summary =
          verify_level_distributed(family.level(level), level, ddb, world);
      EXPECT_TRUE(summary.ok())
          << "level " << level << ": " << summary.first_error;
    }
  }

  std::string dir_;
};

TEST_F(CrashDrill, SequentialBuildAbortsAndResumesBitIdentically) {
  ParallelConfig config;
  config.ranks = 4;
  config.checkpoint_dir = dir_;
  config.fault_plan.seed = 11;
  config.fault_plan.crash_rank = 2;
  config.fault_plan.crash_level = 3;
  config.fault_plan.crash_after_sends = 10;

  const ParallelResult crashed =
      build_parallel(game::AwariFamily{}, 5, config);
  EXPECT_FALSE(crashed.completed());
  EXPECT_EQ(crashed.aborted_level, 3);
  EXPECT_EQ(crashed.crashed_rank, 2);
  EXPECT_EQ(crashed.levels.size(), 3u);  // levels 0..2 finished

  // The "repaired node" comes back: same configuration, crash disarmed.
  ParallelConfig resume = config;
  resume.fault_plan.crash_rank = -1;
  const ParallelResult resumed =
      build_parallel(game::AwariFamily{}, 5, resume);
  EXPECT_TRUE(resumed.completed());
  ASSERT_FALSE(resumed.levels.empty());
  EXPECT_EQ(resumed.levels.front().level, 3);  // resumed, not rebuilt
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
  verify_all_levels(game::AwariFamily{}, 5, *resumed.database);
}

TEST_F(CrashDrill, ThreadedBuildUnderFrameLossRecoversFromCheckpoint) {
  ParallelConfig config;
  config.ranks = 4;
  config.use_threads = true;
  config.combine_bytes = 128;
  config.checkpoint_dir = dir_;
  config.fault_plan.seed = 23;
  config.fault_plan.drop = 0.15;
  config.fault_plan.crash_rank = 1;
  config.fault_plan.crash_level = 2;
  // Under frame loss the retransmission count — and so the total send
  // count — varies with thread scheduling; keep the trigger below the
  // level's deterministic send floor so the crash always fires.
  config.fault_plan.crash_after_sends = 2;

  const ParallelResult crashed =
      build_parallel(game::AwariFamily{}, 4, config);
  EXPECT_FALSE(crashed.completed());
  EXPECT_EQ(crashed.aborted_level, 2);
  EXPECT_EQ(crashed.crashed_rank, 1);

  // Resume still under frame loss — only the crash is gone.
  ParallelConfig resume = config;
  resume.fault_plan.crash_rank = -1;
  const ParallelResult resumed =
      build_parallel(game::AwariFamily{}, 4, resume);
  EXPECT_TRUE(resumed.completed());
  ASSERT_FALSE(resumed.levels.empty());
  EXPECT_EQ(resumed.levels.front().level, 2);
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 4));
  verify_all_levels(game::AwariFamily{}, 4, *resumed.database);
}

TEST_F(CrashDrill, AsyncCoordinatorSurvivesACrashAndResumes) {
  ParallelConfig config;
  config.ranks = 4;
  config.use_threads = true;
  config.async = true;
  config.checkpoint_dir = dir_;
  config.fault_plan.seed = 31;
  config.fault_plan.delay = 0.1;
  config.fault_plan.max_delay_ticks = 8;
  config.fault_plan.crash_rank = 3;
  config.fault_plan.crash_level = 2;
  config.fault_plan.crash_after_sends = 10;

  const ParallelResult crashed =
      build_parallel(game::AwariFamily{}, 4, config);
  EXPECT_FALSE(crashed.completed());
  EXPECT_EQ(crashed.aborted_level, 2);
  EXPECT_EQ(crashed.crashed_rank, 3);

  ParallelConfig resume = config;
  resume.fault_plan.crash_rank = -1;
  const ParallelResult resumed =
      build_parallel(game::AwariFamily{}, 4, resume);
  EXPECT_TRUE(resumed.completed());
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 4));
  verify_all_levels(game::AwariFamily{}, 4, *resumed.database);
}

// A crash on the coordinator rank itself (rank 0 drives quiescence
// detection in the async driver) must also come down cleanly.
TEST_F(CrashDrill, CoordinatorRankCrashAbortsCleanly) {
  ParallelConfig config;
  config.ranks = 4;
  config.use_threads = true;
  config.async = true;
  config.checkpoint_dir = dir_;
  config.fault_plan.seed = 41;
  config.fault_plan.crash_rank = 0;
  config.fault_plan.crash_level = 2;
  config.fault_plan.crash_after_sends = 5;

  const ParallelResult crashed =
      build_parallel(game::AwariFamily{}, 4, config);
  EXPECT_FALSE(crashed.completed());
  EXPECT_EQ(crashed.aborted_level, 2);
  EXPECT_EQ(crashed.crashed_rank, 0);

  ParallelConfig resume = config;
  resume.fault_plan.crash_rank = -1;
  resume.fault_plan.drop = 0.1;  // make the resume itself non-trivial
  const ParallelResult resumed =
      build_parallel(game::AwariFamily{}, 4, resume);
  EXPECT_TRUE(resumed.completed());
  EXPECT_EQ(resumed.database->gather(),
            ra::build_database(game::AwariFamily{}, 4));
}

}  // namespace
}  // namespace retra::para
