// Two-level parallelism: threads_per_rank must be invisible in every
// observable output.  For any (P, T, scheme, combine_bytes, driver) the
// gathered database must be bit-identical to the sequential sweep
// solver's, and the per-rank EngineStats and work meters must be
// *identical* across T — the chunked phases stage their records, queue
// pushes, and counters per chunk and merge in chunk order, so T only ever
// changes wall clock.  The same holds for per-phase splits
// (threads_scan != threads_drain) and for the exec::simd sweep-kernel
// backend: scalar and vector builds are bit-identical too.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>
#include <tuple>

#include <gtest/gtest.h>

#include "retra/exec/simd.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/game/graph_game.hpp"
#include "retra/game/kalah_level.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/msg/thread_comm.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/ra/builder.hpp"
#include "same_run.hpp"

namespace retra::para {
namespace {

// ------------------------------------------------------------------
// StepReport reduction identity (the += seeding bug).

TEST(StepReport, DefaultConstructedIsAbsorbingForReady) {
  // This is why reduction_identity() exists: a default-constructed report
  // has ready == false, so folding any number of ready ranks into it can
  // never report a quiescent round.
  StepReport fold;
  StepReport ready_rank;
  ready_rank.ready = true;
  fold += ready_rank;
  EXPECT_FALSE(fold.ready);
}

TEST(StepReport, ReductionIdentityIsAnIdentity) {
  StepReport rank;
  rank.records_sent = 3;
  rank.records_received = 2;
  rank.work = 7;
  rank.ready = true;

  StepReport fold = StepReport::reduction_identity();
  fold += rank;
  EXPECT_EQ(fold.records_sent, 3u);
  EXPECT_EQ(fold.records_received, 2u);
  EXPECT_EQ(fold.work, 7u);
  EXPECT_TRUE(fold.ready);

  // Folding a not-ready rank clears readiness; counters keep summing.
  StepReport busy_rank;
  busy_rank.work = 1;
  fold += busy_rank;
  EXPECT_FALSE(fold.ready);
  EXPECT_EQ(fold.work, 8u);

  // The identity contributes nothing to itself.
  StepReport zero = StepReport::reduction_identity();
  zero += StepReport::reduction_identity();
  EXPECT_TRUE(zero.ready);
  EXPECT_EQ(zero.records_sent, 0u);
  EXPECT_EQ(zero.work, 0u);
}

// ------------------------------------------------------------------
// One round loop: a message sent in round k is first received in k + 1.

/// Sends one record to the next rank in its first superstep and notes the
/// round in which its own record arrives; the phase ends once all have.
class RingEngine {
 public:
  explicit RingEngine(msg::Comm& comm) : comm_(comm) {}

  StepReport superstep() {
    StepReport step;
    ++round_;
    msg::Message message;
    while (comm_.try_recv(message)) {
      received_in_ = round_;
      ++step.records_received;
      ++step.work;
    }
    if (round_ == 1) {
      comm_.send((comm_.rank() + 1) % comm_.size(), 1,
                 std::vector<std::byte>(1));
      ++step.records_sent;
    }
    step.ready = true;
    return step;
  }
  void advance() { done_ = true; }
  bool done() const { return done_; }
  int received_in() const { return received_in_; }

 private:
  msg::Comm& comm_;
  int round_ = 0;
  int received_in_ = 0;
  bool done_ = false;
};

TEST(BspDriver, RoundKMessagesArriveInRoundKPlusOneInEitherSetting) {
  for (const bool threads : {false, true}) {
    msg::RoundWorld world(3);
    std::vector<std::unique_ptr<RingEngine>> engines;
    for (int rank = 0; rank < world.size(); ++rank) {
      engines.push_back(std::make_unique<RingEngine>(world.endpoint(rank)));
    }
    // Round 1 sends, round 2 receives, round 3 is quiet and ends the
    // phase, round 4 runs after advance() and stops.
    EXPECT_EQ(run_bsp(engines, threads, RoundDelivery{world}), 4u)
        << "threads " << threads;
    for (const auto& engine : engines) {
      EXPECT_EQ(engine->received_in(), 2) << "threads " << threads;
    }
  }
}

// ------------------------------------------------------------------
// Bit-identity across T.

ParallelConfig with_threads(int ranks, int threads) {
  ParallelConfig config;
  config.ranks = ranks;
  config.threads_per_rank = threads;
  // Correctness tests need the exact requested T even on small CI hosts.
  config.oversubscribe = true;
  return config;
}

TEST(ThreadedRank, SingleRankMatchesSequentialForAllAwariLevels) {
  const db::Database expected = ra::build_database(game::AwariFamily{}, 6);
  for (const int threads : {1, 2, 4, 8}) {
    const ParallelResult result =
        build_parallel(game::AwariFamily{}, 6, with_threads(1, threads));
    EXPECT_EQ(result.database->gather(), expected) << "T=" << threads;
  }
}

class PxTSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, PartitionScheme, std::size_t>> {};

TEST_P(PxTSweep, AwariBitIdenticalToSequentialSolver) {
  const auto [ranks, threads, scheme, combine_bytes] = GetParam();
  ParallelConfig config = with_threads(ranks, threads);
  config.scheme = scheme;
  config.block_size = 16;
  config.combine_bytes = combine_bytes;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 6, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PxTSweep,
    ::testing::Values(
        std::make_tuple(2, 2, PartitionScheme::kCyclic, std::size_t{4096}),
        std::make_tuple(4, 3, PartitionScheme::kBlock, std::size_t{4096}),
        std::make_tuple(3, 2, PartitionScheme::kBlockCyclic, std::size_t{1}),
        std::make_tuple(4, 8, PartitionScheme::kCyclic, std::size_t{1}),
        std::make_tuple(2, 4, PartitionScheme::kBlock, std::size_t{64})));

TEST(ThreadedRank, ThreadedDriverTimesThreadsPerRank) {
  // Real rank threads, each with its own worker pool: P×T OS-level
  // parallelism.
  ParallelConfig config = with_threads(3, 2);
  config.use_threads = true;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 6, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
}

TEST(ThreadedRank, AsyncDriverTimesThreadsPerRank) {
  ParallelConfig config = with_threads(3, 2);
  config.use_threads = true;
  config.async = true;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 6, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
}

TEST(ThreadedRank, ThreadsFarBeyondTheChunkCount) {
  // Graph-game levels are tiny: with 4 ranks many local shards hold fewer
  // positions than T = 16, so most chunks are empty.
  game::GraphGameConfig graph_config;
  graph_config.levels = 4;
  graph_config.size0 = 14;
  graph_config.seed = 77;
  const game::GraphGame graph(graph_config);
  ParallelConfig config = with_threads(4, 16);
  const ParallelResult result =
      build_parallel(graph, graph.num_levels() - 1, config);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(graph, graph.num_levels() - 1));

  // Degenerate extreme: T = 32 against awari level 3 (level sizes <= 364).
  const ParallelResult tiny =
      build_parallel(game::AwariFamily{}, 3, with_threads(1, 32));
  EXPECT_EQ(tiny.database->gather(),
            ra::build_database(game::AwariFamily{}, 3));
}

TEST(ThreadedRank, KalahMatchesSequential) {
  const db::Database expected = ra::build_database(game::KalahFamily{}, 5);
  for (const int threads : {1, 4}) {
    const ParallelResult result =
        build_parallel(game::KalahFamily{}, 5, with_threads(2, threads));
    EXPECT_EQ(result.database->gather(), expected) << "T=" << threads;
  }
}

// ------------------------------------------------------------------
// Deterministic stats merge.

TEST(ThreadedRank, StatsAndMetersIdenticalAcrossThreadCounts) {
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 6, with_threads(2, 1));
  for (const int threads : {2, 8}) {
    const ParallelResult result =
        build_parallel(game::AwariFamily{}, 6, with_threads(2, threads));
    ASSERT_EQ(result.levels.size(), reference.levels.size());
    for (std::size_t l = 0; l < reference.levels.size(); ++l) {
      const LevelRunInfo& expect = reference.levels[l];
      const LevelRunInfo& got = result.levels[l];
      EXPECT_EQ(got.rounds, expect.rounds) << "level " << expect.level;
      ASSERT_EQ(got.per_rank.size(), expect.per_rank.size());
      for (std::size_t r = 0; r < expect.per_rank.size(); ++r) {
        expect_same_stats(got.per_rank[r], expect.per_rank[r], expect.level,
                          static_cast<int>(r));
        for (std::size_t k = 0; k < msg::kWorkKinds; ++k) {
          EXPECT_EQ(got.work_per_rank[r].counts[k],
                    expect.work_per_rank[r].counts[k])
              << "level " << expect.level << " rank " << r << " kind " << k;
        }
      }
    }
  }
}

// ------------------------------------------------------------------
// Per-phase thread splits and sweep-kernel backends.

class PhaseSplit
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PhaseSplit, BitAndStatsIdenticalToUniformThreads) {
  const auto [ranks, threads_scan, threads_drain] = GetParam();
  const ParallelResult reference =
      build_parallel(game::AwariFamily{}, 6, with_threads(ranks, 1));
  ParallelConfig config = with_threads(ranks, 1);
  config.threads_scan = threads_scan;
  config.threads_drain = threads_drain;
  const ParallelResult result =
      build_parallel(game::AwariFamily{}, 6, config);
  expect_same_run(result, reference);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 6));
}

INSTANTIATE_TEST_SUITE_P(Grid, PhaseSplit,
                         ::testing::Values(std::make_tuple(1, 4, 1),
                                           std::make_tuple(1, 1, 4),
                                           std::make_tuple(2, 3, 2),
                                           std::make_tuple(2, 8, 3),
                                           std::make_tuple(3, 2, 5)));

// The drain applies local updates in per-slice fork-joins: 7 drain
// threads give more slices than most hosts have cores and slices of
// uneven width, and the out-of-core cases replay each wave from run files
// in 256-entry segments (the smallest the engine still hands to the pool).
// Everything observable must equal the one-slice run's.
class SlicedApply
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SlicedApply, MatchesOneSliceRun) {
  const auto [ranks, threads_drain, out_of_core] = GetParam();
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("retra_sliced_" + std::to_string(::getpid()) + "_" +
        std::to_string(ranks) + "_" + std::to_string(threads_drain)))
          .string();
  auto build = [&](int drain, const std::string& tag) {
    ParallelConfig config = with_threads(ranks, 1);
    config.threads_drain = drain;
    if (out_of_core) {
      config.store.working_set_bytes = 4096;
      config.store.scratch_dir = scratch + "/" + tag;
      config.store.queue_mem_entries = 256;
    }
    return build_parallel(game::AwariFamily{}, 7, config);
  };
  {
    const ParallelResult reference = build(1, "reference");
    const ParallelResult sliced = build(threads_drain, "sliced");
    expect_same_run(sliced, reference);
  }
  std::filesystem::remove_all(scratch);
}

/// ThreadWorld endpoints that fold every payload they send, in send order,
/// into one FNV-1a digest per (source, destination) stream — the streams
/// a receiver observes and the engines keep identical for every T (the
/// interleaving *across* destinations is not).  Equal digests mean equal
/// record streams, which counts and sizes alone cannot show.
class RecordingWorld {
 public:
  explicit RecordingWorld(int ranks) : inner_(ranks) {
    for (int rank = 0; rank < ranks; ++rank) {
      endpoints_.push_back(std::make_unique<Endpoint>(inner_.endpoint(rank)));
    }
  }

  int size() const { return inner_.size(); }
  msg::Comm& endpoint(int rank) {
    return *endpoints_[static_cast<std::size_t>(rank)];
  }

  std::vector<std::uint64_t> digests() const {
    std::vector<std::uint64_t> out;
    for (const auto& endpoint : endpoints_) {
      out.insert(out.end(), endpoint->digests.begin(),
                 endpoint->digests.end());
    }
    return out;
  }

 private:
  class Endpoint : public msg::Comm {
   public:
    explicit Endpoint(msg::Comm& inner)
        : digests(static_cast<std::size_t>(inner.size()),
                  0xcbf29ce484222325ULL),
          inner_(inner) {}
    int rank() const override { return inner_.rank(); }
    int size() const override { return inner_.size(); }
    void send(int dest, std::uint8_t tag,
              std::vector<std::byte> payload) override {
      std::uint64_t& digest = digests[static_cast<std::size_t>(dest)];
      mix(digest, tag);
      for (const std::byte b : payload) {
        mix(digest, static_cast<std::uint64_t>(b));
      }
      inner_.send(dest, tag, std::move(payload));
    }
    bool try_recv(msg::Message& out) override { return inner_.try_recv(out); }

    std::vector<std::uint64_t> digests;  // by destination

   private:
    static void mix(std::uint64_t& digest, std::uint64_t v) {
      digest ^= v;
      digest *= 0x100000001b3ULL;
    }
    msg::Comm& inner_;
  };

  msg::ThreadWorld inner_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

std::vector<std::uint64_t> record_stream_digests(int ranks,
                                                 int threads_drain) {
  RecordingWorld world(ranks);
  ParallelConfig config = with_threads(ranks, 1);
  config.threads_drain = threads_drain;
  const ParallelResult result = build_levels(
      game::AwariFamily{}, 7, config, world,
      [](int, auto& engines) -> std::uint64_t {
        return run_bsp(engines, false);
      });
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 7));
  return world.digests();
}

TEST(SlicedApplyStream, RecordStreamsMatchOneSliceRun) {
  // The next wave's order decides the order of every update record the
  // wave after it sends, so this pins the (chunk, seq) merge exactly.
  for (const int ranks : {2, 3}) {
    const std::vector<std::uint64_t> reference =
        record_stream_digests(ranks, 1);
    for (const int threads_drain : {2, 3, 4, 7}) {
      EXPECT_EQ(record_stream_digests(ranks, threads_drain), reference)
          << "P=" << ranks << " Tdrain=" << threads_drain;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SlicedApply,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Bool()));

TEST(SimdBackends, BuildsBitIdenticalAcrossBackendsAndSplits) {
  // The engines must not observe which sweep-kernel backend ran: for a
  // P×T grid cell, the database, stats, and meters of a scalar-pinned
  // build equal the widest backend's exactly.
  const exec::simd::Backend previous = exec::simd::active();
  exec::simd::set_active(exec::simd::Backend::kScalar);
  ParallelConfig config = with_threads(2, 2);
  config.threads_scan = 3;
  config.threads_drain = 2;
  const ParallelResult scalar =
      build_parallel(game::AwariFamily{}, 6, config);
  exec::simd::set_active(exec::simd::widest_available());
  const ParallelResult vector =
      build_parallel(game::AwariFamily{}, 6, config);
  exec::simd::set_active(previous);
  expect_same_run(vector, scalar);
}

TEST(PhaseThreads, BookkeepingFollowsEachPhaseNotOneGlobalT) {
  // The engine used to publish a single thread gauge; with per-phase
  // widths the scan and drain gauges must report their own phase's T (0
  // inheriting the global knob), whatever the pool width is.
  ParallelConfig config = with_threads(1, 2);
  config.threads_scan = 5;
  config.threads_drain = 3;
  // The gauges exist only in the instrumented build; the builds run
  // either way.
  (void)build_parallel(game::AwariFamily{}, 3, config);
#if RETRA_METRICS_ENABLED
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap[obs::Id::kEngineScanThreads].value, 5u);
  EXPECT_EQ(snap[obs::Id::kEngineDrainThreads].value, 3u);
#endif  // RETRA_METRICS_ENABLED

  (void)build_parallel(game::AwariFamily{}, 3, with_threads(1, 4));
#if RETRA_METRICS_ENABLED
  snap = obs::snapshot();
  EXPECT_EQ(snap[obs::Id::kEngineScanThreads].value, 4u);
  EXPECT_EQ(snap[obs::Id::kEngineDrainThreads].value, 4u);
#endif  // RETRA_METRICS_ENABLED
}

}  // namespace
}  // namespace retra::para
