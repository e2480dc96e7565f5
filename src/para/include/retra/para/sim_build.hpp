// Simulated parallel database construction.
//
// The same run as build_parallel()'s BSP builds — literally: both run
// build_levels() over a msg::RoundWorld under run_bsp, and only the round
// hooks differ.  Here sim::ClusterClock closes each round, pricing its
// supersteps and messages before delivering them, so every message, round
// and counter equals the host build's, and use_threads (ranks stepping
// concurrently on the host) prices the same virtual run.  The values are
// real — tests compare them against the sequential solver — only the
// clock is modelled: `timings` holds the virtual seconds, while
// LevelRunInfo::build_seconds stays host wall time as in every build.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "retra/msg/round_world.hpp"
#include "retra/para/drivers.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/sim/cluster_model.hpp"
#include "retra/sim/projection.hpp"
#include "retra/sim/sim_driver.hpp"
#include "retra/support/check.hpp"

namespace retra::para {

struct SimBuildResult : ParallelResult {
  /// Virtual cluster time and traffic, one per level (the replication
  /// exchange and the level's disk I/O included).
  std::vector<sim::SimRunResult> timings;

  double total_time_s() const {
    double total = 0;
    for (const auto& t : timings) total += t.time_s;
    return total;
  }
};

/// Extracts the per-position workload densities of a finished level run
/// (the input of paper-scale projections).
inline sim::LevelProfile profile_of(const LevelRunInfo& info) {
  sim::LevelProfile profile;
  profile.positions = info.size;
  const double positions = static_cast<double>(info.size);
  if (info.size == 0) return profile;
  const auto meter_count = [&](msg::WorkKind kind) {
    return static_cast<double>(info.work_total.count(kind));
  };
  profile.exits_pp = meter_count(msg::WorkKind::kExitOption) / positions;
  profile.edges_pp = meter_count(msg::WorkKind::kLevelEdge) / positions;
  profile.preds_pp = meter_count(msg::WorkKind::kPredEdge) / positions;
  profile.updates_pp = meter_count(msg::WorkKind::kUpdateApply) / positions;
  profile.sweeps_pp = meter_count(msg::WorkKind::kSweepPosition) / positions;
  profile.assigns_pp =
      static_cast<double>(info.total.assignments) / positions;
  profile.lookups_pp =
      static_cast<double>(info.total.lookups_local +
                          info.total.lookups_remote) /
      positions;
  profile.rounds = info.rounds;
  return profile;
}

template <typename Family>
SimBuildResult build_parallel_simulated(const Family& family, int max_level,
                                        const ParallelConfig& config,
                                        const sim::ClusterModel& model,
                                        sim::TraceSink* trace = nullptr) {
  RETRA_CHECK_MSG(!config.fault_plan.active(),
                  "the simulated cluster models no faults");
  RETRA_CHECK_MSG(!config.async, "the simulated cluster is bulk-synchronous");
  RETRA_CHECK_MSG(config.checkpoint_dir.empty(),
                  "the simulated cluster does not checkpoint");
  msg::RoundWorld world(config.ranks);
  SimBuildResult result;
  result.timings.resize(support::to_size(max_level + 1));
  static_cast<ParallelResult&>(result) = build_levels(
      family, max_level, config, world,
      [&](int level, auto& engines) -> std::uint64_t {
        sim::ClusterClock clock(world, model, trace);
        const std::uint64_t rounds =
            run_bsp(engines, config.use_threads, clock);
        result.timings[support::to_size(level)].accumulate(clock.result());
        return rounds;
      });
  // Price each level's spill/fault traffic on the model's disks: ranks
  // overlap with each other but not with their own I/O, so the level
  // stretches by the busiest rank's disk time (BSP supersteps already
  // serialise compute against the barrier).
  for (const LevelRunInfo& info : result.levels) {
    sim::SimRunResult& timing = result.timings[support::to_size(info.level)];
    double io_max_s = 0.0;
    for (std::size_t i = 0; i < info.store_per_rank.size(); ++i) {
      const StoreStats& delta = info.store_per_rank[i];
      const double io_s = model.machine.io_seconds(
          delta.faults + delta.levels_spilled,
          delta.fault_bytes + delta.spill_bytes);
      if (i < timing.per_rank.size()) timing.per_rank[i].compute_s += io_s;
      if (io_s > io_max_s) io_max_s = io_s;
    }
    timing.time_s += io_max_s;
  }
  return result;
}

}  // namespace retra::para
