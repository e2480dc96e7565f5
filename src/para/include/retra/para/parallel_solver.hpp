// Top-level parallel database construction.
//
// build_parallel() is the distributed counterpart of ra::build_database():
// it solves levels bottom-up across P ranks, keeping every solved level
// partitioned (or replicated) and collecting per-level run statistics —
// rounds, record and message counts, communication volume, per-rank work —
// that the paper-style tables are printed from.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "retra/msg/fault_comm.hpp"
#include "retra/msg/reliable_comm.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/msg/thread_comm.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/checkpoint.hpp"
#include "retra/para/dist_db.hpp"
#include "retra/para/drivers.hpp"
#include "retra/para/rank_engine.hpp"
#include "retra/para/shard_exchange.hpp"
#include "retra/support/log.hpp"
#include "retra/support/numeric.hpp"
#include "retra/support/timer.hpp"

namespace retra::para {

struct ParallelConfig {
  int ranks = 4;
  PartitionScheme scheme = PartitionScheme::kCyclic;
  std::uint64_t block_size = 1024;  // block-cyclic block width
  /// Combining buffer size in bytes; 1 disables combining.
  std::size_t combine_bytes = 4096;
  /// Replicate solved levels on every rank instead of partitioning them.
  bool replicate_lower = false;
  /// Step each rank on its own OS thread (otherwise in turn on the
  /// calling thread); both settings run the same rounds.
  bool use_threads = false;
  /// Worker threads inside each rank for the engines' parallel phases
  /// (Init scan, magnitude seeding, zero-fill).  The produced database and
  /// every message/record count are bit-identical for any value; only wall
  /// clock changes.  Capped against the hardware concurrency (ranks ×
  /// threads must not silently oversubscribe) unless `oversubscribe`.
  int threads_per_rank = 1;
  /// Per-phase overrides of threads_per_rank: the scan-side sweeps (Init
  /// scan, seeding, zero-fill) and the drain waves saturate at different
  /// widths, so each can run its own T.  0 inherits threads_per_rank.
  /// Bit-identity holds across every combination, same as above.
  int threads_scan = 0;
  int threads_drain = 0;
  /// Skip the hardware-concurrency cap on threads_per_rank.  Correctness
  /// tests use this to force T > cores and T > chunk-count configurations.
  bool oversubscribe = false;
  /// With use_threads: drop the per-round barrier and run fully
  /// asynchronously (message-driven, coordinator-based termination
  /// detection) — ablation A2.
  bool async = false;
  /// When set, a checkpoint is written after every completed level and a
  /// compatible existing checkpoint is resumed from (see
  /// retra/para/checkpoint.hpp).
  std::string checkpoint_dir;
  /// When active, every endpoint is wrapped in a fault-injecting transport
  /// plus the reliability sublayer (see retra/msg/fault_comm.hpp): frames
  /// are dropped/duplicated/reordered/delayed/corrupted per the seeded
  /// plan, and a scheduled rank crash aborts the build cleanly so it can
  /// be resumed from `checkpoint_dir`.
  msg::FaultPlan fault_plan;
  /// Retry/backoff tuning of the reliability sublayer (used only when
  /// `fault_plan` is active).
  msg::ReliableConfig reliable;
  /// Level-storage backend selection: a nonzero working-set budget turns
  /// the build out-of-core (completed levels spill to store.scratch_dir
  /// in RTRADB03 form and fault back on demand).  The produced database
  /// is bit-identical either way.
  StoreConfig store;
};

/// Statistics of one level build across all ranks.
struct LevelRunInfo {
  int level = 0;
  std::uint64_t size = 0;
  std::uint64_t rounds = 0;
  double build_seconds = 0.0;            // host wall time of the level build
  EngineStats total;                     // summed over ranks
  std::vector<EngineStats> per_rank;     // for load-balance analysis
  msg::WorkMeter work_total;             // summed abstract work
  std::vector<msg::WorkMeter> work_per_rank;
  std::vector<std::uint64_t> working_bytes;  // per-rank build working set
  /// Level-store activity while building this level: counters are summed
  /// over ranks, the residency gauges report the busiest rank (what the
  /// per-rank working-set budget is compared against).  All zeros except
  /// residency for an in-memory build.
  StoreStats store_total;
  std::vector<StoreStats> store_per_rank;
  /// Faults injected / reliability-protocol work while building this
  /// level, summed over ranks.  All zeros in a fault-free run.
  msg::FaultStats faults;
  msg::ReliableStats reliability;
};

/// Sums the per-rank engine stats and work meters into the level totals
/// and publishes the level to the obs registry.  The single place these
/// numbers are produced: build_levels calls it for build_parallel and
/// build_parallel_simulated alike, and through them every bench table and
/// BENCH_*.json artifact reads the same counters (see docs/METRICS.md).
inline void finalize_level_info(LevelRunInfo& info) {
  for (const EngineStats& stats : info.per_rank) info.total += stats;
  for (const msg::WorkMeter& meter : info.work_per_rank) {
    info.work_total += meter;
  }
  for (const StoreStats& stats : info.store_per_rank) {
    info.store_total += stats;
  }
  RETRA_OBS_ADD(obs::Id::kEngineUpdatesLocal, info.total.updates_local);
  RETRA_OBS_ADD(obs::Id::kEngineUpdatesRemote, info.total.updates_remote);
  RETRA_OBS_ADD(obs::Id::kEngineLookupsLocal, info.total.lookups_local);
  RETRA_OBS_ADD(obs::Id::kEngineLookupsRemote, info.total.lookups_remote);
  RETRA_OBS_ADD(obs::Id::kEngineRepliesSent, info.total.replies_sent);
  RETRA_OBS_ADD(obs::Id::kEngineAssignments, info.total.assignments);
  RETRA_OBS_ADD(obs::Id::kEngineZeroFilled, info.total.zero_filled);
  RETRA_OBS_ADD(obs::Id::kEngineMessagesSent, info.total.messages_sent);
  RETRA_OBS_ADD(obs::Id::kEnginePayloadBytes, info.total.payload_bytes);
  // Store activity is published here in bulk, from the per-level deltas:
  // the file backend itself makes no obs calls, so fault/evict ordering
  // under T > 1 can never leak into the published counters.
  RETRA_OBS_ADD(obs::Id::kEngineStoreLevelsSpilled,
                info.store_total.levels_spilled);
  RETRA_OBS_ADD(obs::Id::kEngineStoreSpillBytes, info.store_total.spill_bytes);
  RETRA_OBS_ADD(obs::Id::kEngineStoreFaults, info.store_total.faults);
  RETRA_OBS_ADD(obs::Id::kEngineStoreFaultBytes, info.store_total.fault_bytes);
  RETRA_OBS_ADD(obs::Id::kEngineStoreEvictions, info.store_total.evictions);
  RETRA_OBS_ADD(obs::Id::kEngineStoreQueueSpilledRecords,
                info.store_total.queue_spilled_records);
  RETRA_OBS_SET(obs::Id::kEngineStoreResidentBytes,
                info.store_total.resident_bytes);
  RETRA_OBS_SET(obs::Id::kEngineStorePeakResidentBytes,
                info.store_total.peak_resident_bytes);
  RETRA_OBS_INC(obs::Id::kDriverLevelsBuilt);
  RETRA_OBS_ADD(obs::Id::kDriverPositions, info.size);
  RETRA_OBS_ADD(obs::Id::kDriverRounds, info.rounds);
  RETRA_OBS_TIME_NS(obs::Id::kDriverLevelSeconds,
                    static_cast<std::uint64_t>(info.build_seconds * 1e9));
}

struct ParallelResult {
  std::unique_ptr<DistributedDatabase> database;
  std::vector<LevelRunInfo> levels;
  /// A scheduled rank crash aborted the build while this level was being
  /// built (-1: the build ran to completion).  Levels before it are
  /// checkpointed (when checkpoint_dir is set) and a follow-up invocation
  /// resumes from them.
  int aborted_level = -1;
  int crashed_rank = -1;

  bool completed() const { return aborted_level < 0; }

  /// Total combined messages / payload across all levels.
  std::uint64_t total_messages() const {
    std::uint64_t sum = 0;
    for (const auto& info : levels) sum += info.total.messages_sent;
    return sum;
  }
  std::uint64_t total_payload_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& info : levels) sum += info.total.payload_bytes;
    return sum;
  }
  /// Total rounds across all levels (supersteps under the async driver).
  std::uint64_t total_rounds() const {
    std::uint64_t sum = 0;
    for (const auto& info : levels) sum += info.rounds;
    return sum;
  }
};

/// The level loop of every build: solves levels bottom-up with engines on
/// `world`'s endpoints (or on fault-injecting + reliable stacks over them
/// when config.fault_plan is active), and per level takes the
/// meter/store/fault snapshots, runs the engines, replicates or seals the
/// level, records the deltas, checkpoints, and finalizes the level's
/// LevelRunInfo.  `run(level,
/// engines)` drives one engine set to completion and returns its rounds:
/// build_parallel picks a host driver, build_parallel_simulated prices
/// run_bsp's rounds on the cluster model.  A level's rounds and work
/// cover everything it did, the replication exchange included.
template <typename Family, typename World, typename Run>
ParallelResult build_levels(const Family& family, int max_level,
                            const ParallelConfig& config, World& world,
                            Run&& run) {
  const std::size_t nranks = support::to_size(config.ranks);
  // One fault stack per build, not per level: acknowledgements and
  // retransmissions cross level boundaries.
  std::unique_ptr<msg::FaultWorld> faults;
  if (config.fault_plan.active()) {
    faults = std::make_unique<msg::FaultWorld>(world, config.fault_plan,
                                               config.reliable);
  }
  RETRA_OBS_SET(obs::Id::kDriverRanks,
                static_cast<std::uint64_t>(config.ranks));
  ParallelResult result;
  int first_level = 0;
  if (!config.checkpoint_dir.empty()) {
    CheckpointLoad loaded = checkpoint_load(config.checkpoint_dir,
                                            config.store);
    if (loaded.ok &&
        checkpoint_compatible(loaded.meta, config.ranks, config.scheme,
                              config.block_size, config.replicate_lower)) {
      result.database = std::move(loaded.database);
      first_level = loaded.meta.levels;
      support::log_info("resuming from checkpoint: levels 0..%d done",
                        first_level - 1);
    } else if (loaded.ok) {
      support::log_info(
          "checkpoint in %s has a different configuration; starting fresh",
          config.checkpoint_dir.c_str());
    } else if (loaded.error.rfind("no manifest", 0) != 0) {
      // An absent checkpoint is the normal first run; anything else (a
      // corrupted or truncated one) must be diagnosed, never silently
      // discarded.
      support::log_info("checkpoint in %s is unusable (%s); starting fresh",
                        config.checkpoint_dir.c_str(),
                        loaded.error.c_str());
    }
  }
  if (!result.database) {
    result.database = std::make_unique<DistributedDatabase>(
        config.scheme, config.block_size, config.ranks,
        config.replicate_lower, config.store);
  }
  DistributedDatabase& ddb = *result.database;
  auto endpoint = [&](int rank) -> msg::Comm& {
    return faults ? faults->endpoint(rank) : world.endpoint(rank);
  };
  EngineConfig engine_config;
  engine_config.combine_bytes = config.combine_bytes;
  engine_config.threads_per_rank =
      effective_threads_per_rank(config.threads_per_rank, config.ranks,
                                 config.use_threads, config.oversubscribe);
  engine_config.threads_scan = effective_phase_threads(
      config.threads_scan, engine_config.threads_per_rank, config.ranks,
      config.use_threads, config.oversubscribe);
  engine_config.threads_drain = effective_phase_threads(
      config.threads_drain, engine_config.threads_per_rank, config.ranks,
      config.use_threads, config.oversubscribe);

  for (int level = first_level; level <= max_level; ++level) {
    decltype(auto) game = family.level(level);
    using Game = std::remove_cvref_t<decltype(game)>;
    const Partition partition = ddb.make_partition(game.size());
    if (faults) faults->set_level(level);

    std::vector<std::unique_ptr<RankEngine<Game>>> engines;
    engines.reserve(nranks);
    for (int rank = 0; rank < config.ranks; ++rank) {
      engines.push_back(std::make_unique<RankEngine<Game>>(
          game, partition, endpoint(rank), ddb, engine_config));
    }

    // Meters, stores and fault counters accumulate across levels; keep
    // pre-level snapshots so the level's activity is reported as a delta.
    std::vector<msg::WorkMeter> meters_before;
    std::vector<StoreStats> store_before;
    std::vector<msg::FaultStats> faults_before(nranks);
    std::vector<msg::ReliableStats> reliability_before(nranks);
    for (int rank = 0; rank < config.ranks; ++rank) {
      const std::size_t i = support::to_size(rank);
      meters_before.push_back(endpoint(rank).meter());
      store_before.push_back(ddb.store(rank).stats());
      if (faults) {
        faults_before[i] = faults->faulty(rank).fault_stats();
        reliability_before[i] = faults->reliable(rank).reliable_stats();
      }
    }

    LevelRunInfo info;
    info.level = level;
    info.size = game.size();
    const support::Timer level_timer;
    try {
      info.rounds = run(level, engines);
      for (std::size_t i = 0; i < nranks; ++i) {
        info.per_rank.push_back(engines[i]->stats());
        info.working_bytes.push_back(engines[i]->working_bytes());
      }
      engines.clear();  // the solved shards stay behind as the stores' builds

      if (config.replicate_lower) {
        // Broadcast every shard so each rank holds a private full copy;
        // the exchange reads straight out of the stores' still-active
        // builds.
        std::vector<std::vector<db::Value>> full(nranks);
        std::vector<std::unique_ptr<ShardExchange>> exchange;
        exchange.reserve(nranks);
        for (int rank = 0; rank < config.ranks; ++rank) {
          const std::size_t i = support::to_size(rank);
          exchange.push_back(std::make_unique<ShardExchange>(
              partition, endpoint(rank), ddb.store(rank).build().values,
              full[i], config.combine_bytes));
        }
        info.rounds += run(level, exchange);
        ddb.push_level_full(level, std::move(full));
      } else {
        ddb.seal_level_from_builds(level, game.size());
      }
    } catch (const msg::RankCrash& crash) {
      result.aborted_level = level;
      result.crashed_rank = crash.rank;
      if (config.checkpoint_dir.empty()) {
        support::log_info("rank %d crashed while building level %d; aborting",
                          crash.rank, level);
      } else {
        support::log_info(
            "rank %d crashed while building level %d; aborting (levels "
            "0..%d are checkpointed)",
            crash.rank, level, level - 1);
      }
      return result;
    }

    for (int rank = 0; rank < config.ranks; ++rank) {
      const std::size_t i = support::to_size(rank);
      msg::WorkMeter delta = endpoint(rank).meter();
      for (std::size_t k = 0; k < msg::kWorkKinds; ++k) {
        delta.counts[k] -= meters_before[i].counts[k];
      }
      info.work_per_rank.push_back(delta);
      info.store_per_rank.push_back(ddb.store(rank).stats() -
                                    store_before[i]);
      if (faults) {
        info.faults += faults->faulty(rank).fault_stats() - faults_before[i];
        info.reliability +=
            faults->reliable(rank).reliable_stats() - reliability_before[i];
      }
    }
    if (!config.checkpoint_dir.empty()) {
      checkpoint_save_level(ddb, level, config.checkpoint_dir);
    }
    info.build_seconds = level_timer.seconds();
    finalize_level_info(info);
    result.levels.push_back(std::move(info));
  }
  return result;
}

/// The host build.  BSP builds, sequential or threaded, exchange messages
/// over a RoundWorld and deliver each round at its close; the async
/// driver has no rounds and runs over a ThreadWorld.
template <typename Family>
ParallelResult build_parallel(const Family& family, int max_level,
                              const ParallelConfig& config) {
  if (config.use_threads && config.async) {
    msg::ThreadWorld world(config.ranks);
    return build_levels(family, max_level, config, world,
                        [](int /*level*/, auto& engines) -> std::uint64_t {
                          return run_async_threads(engines);
                        });
  }
  msg::RoundWorld world(config.ranks);
  return build_levels(family, max_level, config, world,
                      [&](int /*level*/, auto& engines) -> std::uint64_t {
                        return run_bsp(engines, config.use_threads,
                                       RoundDelivery{world});
                      });
}

}  // namespace retra::para
