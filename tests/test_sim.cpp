#include <gtest/gtest.h>

#include "retra/game/awari_level.hpp"
#include "retra/game/graph_game.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/para/sim_build.hpp"
#include "retra/ra/builder.hpp"
#include "retra/sim/cluster_model.hpp"
#include "retra/sim/projection.hpp"
#include "retra/sim/sim_driver.hpp"
#include "same_run.hpp"

namespace retra::sim {
namespace {

TEST(ClusterModel, CpuSecondsPriceWork) {
  MachineModel machine;
  machine.cpu_ops_per_second = 1e6;
  msg::WorkMeter meter;
  meter.charge(msg::WorkKind::kAssign, 100);  // 80 ops each by default
  EXPECT_NEAR(machine.cpu_seconds(meter), 100 * 80 / 1e6, 1e-12);
}

TEST(EthernetModel, MediumTimeHasMinimumFrame) {
  EthernetModel net;
  // A 1-byte payload still occupies a 64-byte frame: 51.2 us at 10 Mb/s.
  EXPECT_NEAR(net.medium_seconds(1), 64 * 8 / 10e6, 1e-9);
  // A 4 KB payload: (4096+58)*8/10e6.
  EXPECT_NEAR(net.medium_seconds(4096), (4096 + 58) * 8 / 10e6, 1e-9);
}

TEST(ClusterModel, BarrierGrowsWithRanks) {
  ClusterModel model;
  EXPECT_LT(model.barrier_seconds(2), model.barrier_seconds(64));
}

TEST(SimBuild, ValuesIdenticalToSequential) {
  para::ParallelConfig config;
  config.ranks = 4;
  const ClusterModel model;
  const auto result = para::build_parallel_simulated(
      game::AwariFamily{}, 5, config, model);
  EXPECT_EQ(result.database->gather(),
            ra::build_database(game::AwariFamily{}, 5));
  EXPECT_GT(result.total_time_s(), 0.0);
}

TEST(SimBuild, DeterministicTimings) {
  para::ParallelConfig config;
  config.ranks = 8;
  const ClusterModel model;
  const auto a = para::build_parallel_simulated(game::AwariFamily{}, 4,
                                                config, model);
  const auto b = para::build_parallel_simulated(game::AwariFamily{}, 4,
                                                config, model);
  ASSERT_EQ(a.timings.size(), b.timings.size());
  for (std::size_t i = 0; i < a.timings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timings[i].time_s, b.timings[i].time_s);
    EXPECT_EQ(a.timings[i].messages, b.timings[i].messages);
  }
}

TEST(SimBuild, CombiningIsDramaticallyFaster) {
  // The paper's central claim, in miniature: same workload, same values,
  // orders of magnitude apart in simulated communication time.
  // Small levels only partially fill 4 KB buffers before each superstep
  // flush, so the full factors need the bench-scale levels; even here the
  // direction and a solid margin must hold.
  para::ParallelConfig combined;
  combined.ranks = 8;
  combined.combine_bytes = 4096;
  para::ParallelConfig naive = combined;
  naive.combine_bytes = 1;
  const ClusterModel model;
  const auto fast = para::build_parallel_simulated(game::AwariFamily{}, 8,
                                                   combined, model);
  const auto slow = para::build_parallel_simulated(game::AwariFamily{}, 8,
                                                   naive, model);
  EXPECT_EQ(fast.database->gather(), slow.database->gather());
  EXPECT_LT(fast.total_time_s() * 2, slow.total_time_s());
  EXPECT_LT(fast.timings.back().messages * 5,
            slow.timings.back().messages);
}

TEST(SimBuild, BreakdownCoversWallClock) {
  para::ParallelConfig config;
  config.ranks = 4;
  const ClusterModel model;
  const auto result = para::build_parallel_simulated(
      game::AwariFamily{}, 5, config, model);
  for (const SimRunResult& timing : result.timings) {
    for (const RankBreakdown& rank : timing.per_rank) {
      // busy + idle + barriers == wall clock for every rank.
      EXPECT_NEAR(rank.busy_s() + rank.idle_s + timing.barrier_s,
                  timing.time_s, 1e-6);
    }
  }
}

TEST(SimBuild, NetworkBusyNeverExceedsWallClock) {
  para::ParallelConfig config;
  config.ranks = 6;
  const ClusterModel model;
  const auto result = para::build_parallel_simulated(
      game::AwariFamily{}, 6, config, model);
  for (const SimRunResult& timing : result.timings) {
    EXPECT_LE(timing.network_busy_s, timing.time_s + 1e-9);
  }
}

TEST(SimBuild, GraphGameWorksToo) {
  game::GraphGameConfig gconfig;
  gconfig.levels = 4;
  gconfig.size0 = 16;
  gconfig.seed = 5;
  const game::GraphGame graph(gconfig);
  para::ParallelConfig config;
  config.ranks = 4;
  const auto result = para::build_parallel_simulated(
      graph, graph.num_levels() - 1, config, ClusterModel{});
  EXPECT_EQ(result.database->gather(),
            ra::build_database(graph, graph.num_levels() - 1));
}

TEST(SimBuild, LevelCountersMatchTheHostBuild) {
  // One level loop, one round loop and one round-delivered world serve
  // every build, so what a level reports must not depend on which one ran
  // it: the database, rounds, per-rank EngineStats (messages and payload
  // included) and work meters of the simulated build equal both host
  // drivers', and so does the summed store activity.
  for (const bool replicate : {false, true}) {
    para::ParallelConfig config;
    config.ranks = 4;
    config.replicate_lower = replicate;
    const para::SimBuildResult sim = para::build_parallel_simulated(
        game::AwariFamily{}, 6, config, ClusterModel{});
    ASSERT_EQ(sim.timings.size(), sim.levels.size());
    for (const bool threads : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "replicate " << replicate
                                        << " threads " << threads);
      config.use_threads = threads;
      const para::ParallelResult host =
          para::build_parallel(game::AwariFamily{}, 6, config);
      para::expect_same_run(sim, host);
      for (std::size_t l = 0; l < host.levels.size(); ++l) {
        EXPECT_EQ(sim.levels[l].store_total, host.levels[l].store_total)
            << "level " << l;
      }
    }
    for (std::size_t l = 0; l < sim.levels.size(); ++l) {
      EXPECT_EQ(sim.levels[l].rounds, sim.timings[l].rounds) << "level " << l;
      if (replicate) continue;  // the exchange's messages are not the engines'
      EXPECT_EQ(sim.levels[l].total.messages_sent, sim.timings[l].messages)
          << "level " << l;
      EXPECT_EQ(sim.levels[l].total.payload_bytes,
                sim.timings[l].payload_bytes)
          << "level " << l;
    }
  }
}

TEST(SimBuild, ThreadedStepsPriceTheSameRun) {
  // The cluster clock prices each rank's step from that rank's state
  // alone, so stepping the ranks on their own threads changes no virtual
  // second, let alone a message.
  para::ParallelConfig config;
  config.ranks = 6;
  config.combine_bytes = 256;
  const ClusterModel model;
  const para::SimBuildResult sequential = para::build_parallel_simulated(
      game::AwariFamily{}, 6, config, model);
  config.use_threads = true;
  const para::SimBuildResult threaded = para::build_parallel_simulated(
      game::AwariFamily{}, 6, config, model);
  para::expect_same_run(threaded, sequential);
  ASSERT_EQ(threaded.timings.size(), sequential.timings.size());
  for (std::size_t l = 0; l < sequential.timings.size(); ++l) {
    const SimRunResult& a = sequential.timings[l];
    const SimRunResult& b = threaded.timings[l];
    EXPECT_EQ(b.time_s, a.time_s) << "level " << l;
    EXPECT_EQ(b.messages, a.messages) << "level " << l;
    EXPECT_EQ(b.network_busy_s, a.network_busy_s) << "level " << l;
    ASSERT_EQ(b.per_rank.size(), a.per_rank.size());
    for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
      EXPECT_EQ(b.per_rank[r].compute_s, a.per_rank[r].compute_s);
      EXPECT_EQ(b.per_rank[r].idle_s, a.per_rank[r].idle_s);
    }
  }
}

using SimBuildDeath = ::testing::Test;

TEST(SimBuildDeath, RejectsHostOnlySettings) {
  // Faults, the async driver and checkpoints exist only in the host
  // build; the simulated one refuses them instead of ignoring them.
  para::ParallelConfig faulty;
  faulty.fault_plan.drop = 0.1;
  EXPECT_DEATH((void)para::build_parallel_simulated(game::AwariFamily{}, 1,
                                                    faulty, ClusterModel{}),
               "models no faults");
  para::ParallelConfig async;
  async.async = true;
  EXPECT_DEATH((void)para::build_parallel_simulated(game::AwariFamily{}, 1,
                                                    async, ClusterModel{}),
               "bulk-synchronous");
  para::ParallelConfig checkpointed;
  checkpointed.checkpoint_dir = "unused";
  EXPECT_DEATH((void)para::build_parallel_simulated(
                   game::AwariFamily{}, 1, checkpointed, ClusterModel{}),
               "does not checkpoint");
}

TEST(Projection, ProfileExtractsDensities) {
  para::ParallelConfig config;
  config.ranks = 4;
  const auto result = para::build_parallel_simulated(
      game::AwariFamily{}, 6, config, ClusterModel{});
  const LevelProfile profile = para::profile_of(result.levels.back());
  EXPECT_EQ(profile.positions, idx::level_size(6));
  EXPECT_GT(profile.edges_pp, 0.0);
  EXPECT_LE(profile.edges_pp, 6.0);  // at most six moves per position
  EXPECT_GT(profile.preds_pp, 0.0);
  EXPECT_GT(profile.rounds, 0u);
}

TEST(Projection, MoreRanksLessComputePerRank) {
  LevelProfile profile;
  profile.positions = 10'000'000;
  profile.exits_pp = 1.0;
  profile.edges_pp = 3.0;
  profile.preds_pp = 3.0;
  profile.assigns_pp = 0.9;
  profile.updates_pp = 3.0;
  profile.lookups_pp = 1.0;
  profile.rounds = 200;
  const ClusterModel model;
  const auto p8 = project_level(profile, 8, model, 4096);
  const auto p64 = project_level(profile, 64, model, 4096);
  EXPECT_GT(p8.compute_s, p64.compute_s * 6);
  EXPECT_LT(p64.time_s, p8.time_s);  // still scaling at this size
}

TEST(Projection, CombiningOffExplodesOverheads) {
  LevelProfile profile;
  profile.positions = 1'000'000;
  profile.edges_pp = 3.0;
  profile.preds_pp = 3.0;
  profile.updates_pp = 3.0;
  profile.assigns_pp = 0.9;
  profile.lookups_pp = 1.0;
  profile.exits_pp = 1.0;
  profile.rounds = 100;
  const ClusterModel model;
  const auto on = project_level(profile, 64, model, 4096);
  const auto off = project_level(profile, 64, model, 1);
  EXPECT_GT(off.time_s, on.time_s * 5);
  EXPECT_GT(off.messages, on.messages * 100);
}

TEST(Projection, ScaledProfileKeepsDensities) {
  LevelProfile profile;
  profile.positions = 1000;
  profile.edges_pp = 2.5;
  profile.rounds = 50;
  const LevelProfile big = profile.scaled(1'000'000, 2.0);
  EXPECT_EQ(big.positions, 1'000'000u);
  EXPECT_DOUBLE_EQ(big.edges_pp, 2.5);
  EXPECT_EQ(big.rounds, 100u);
}

TEST(Projection, CoherentWithTheEventDrivenModel) {
  // The closed form and the discrete-event driver must tell the same
  // story at a scale where both can run: the projection amortises the
  // partial-buffer flushes and per-round barriers the DES plays out, so
  // it is systematically a little faster, but never a different regime.
  const ClusterModel model;
  for (const int ranks : {4, 16, 64}) {
    para::ParallelConfig config;
    config.ranks = ranks;
    const auto run = para::build_parallel_simulated(game::AwariFamily{}, 9,
                                                    config, model);
    const LevelProfile profile = para::profile_of(run.levels.back());
    const double projected =
        project_level(profile, ranks, model, 4096).time_s;
    const double simulated = run.timings.back().time_s;
    EXPECT_GT(simulated, projected * 0.8) << "P=" << ranks;
    EXPECT_LT(simulated, projected * 3.0) << "P=" << ranks;
  }
}

TEST(Projection, SpeedupCurveHasThePaperShape) {
  // A paper-scale level: compute-dominated at low P, bending as the
  // shared network and barriers grow; speedup at 64 lands in the
  // neighbourhood the abstract reports (48) without exceeding P.
  LevelProfile profile;
  profile.positions = 200'000'000;  // paper-scale database
  profile.exits_pp = 1.2;
  profile.edges_pp = 3.5;
  profile.preds_pp = 3.5;
  profile.assigns_pp = 0.9;
  profile.updates_pp = 3.5;
  profile.lookups_pp = 1.2;
  profile.rounds = 2000;
  const ClusterModel model;
  const double t1 = project_level(profile, 1, model, 4096).time_s;
  double previous = t1;
  for (const int ranks : {2, 4, 8, 16, 32, 64}) {
    const double t = project_level(profile, ranks, model, 4096).time_s;
    const double speedup = t1 / t;
    EXPECT_LT(t, previous) << ranks;  // still profitable at every step
    EXPECT_LE(speedup, ranks * 1.001) << ranks;
    previous = t;
  }
  const double speedup64 =
      t1 / project_level(profile, 64, model, 4096).time_s;
  EXPECT_GT(speedup64, 30.0);
  EXPECT_LT(speedup64, 64.0);
}

}  // namespace
}  // namespace retra::sim
