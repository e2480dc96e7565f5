// Bulk-synchronous drivers.
//
// Engines expose three calls — superstep(), advance(), done() — and never
// block.  run_bsp is the one round loop of every BSP build, host or
// simulated (the cluster model prices its rounds through round hooks; see
// retra/sim/sim_driver.hpp).  run_async_threads (ablation A2) has no
// rounds: ranks step freely over a msg::ThreadWorld and a coordinator
// detects quiescence.
#pragma once

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "retra/msg/fault_comm.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/para/rank_engine.hpp"
#include "retra/support/access_check.hpp"
#include "retra/support/check.hpp"
#include "retra/support/log.hpp"
#include "retra/support/sync.hpp"

namespace retra::para {

/// Ceiling on rounds per level; hitting it means a termination-detection
/// bug, not a big workload.
inline constexpr std::uint64_t kRoundLimit = 100'000'000;

/// The thread count the engines should actually use for a requested
/// threads_per_rank.  With the threaded driver every rank runs
/// concurrently, so the active parallelism is ranks × threads; silently
/// oversubscribing the host would produce misleading speedup curves, so
/// the request is capped against the hardware concurrency and the cap is
/// logged.  `allow_oversubscribe` bypasses the cap (correctness tests run
/// T > cores deliberately — results are bit-identical either way).
inline int effective_threads_per_rank(int requested, int ranks,
                                      bool use_threads,
                                      bool allow_oversubscribe) {
  int threads = requested > 1 ? requested : 1;
  if (allow_oversubscribe || threads == 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return threads;  // unknown topology: trust the caller
  const int concurrent_ranks = use_threads && ranks > 1 ? ranks : 1;
  const int cap =
      static_cast<int>(hw) / concurrent_ranks > 1
          ? static_cast<int>(hw) / concurrent_ranks
          : 1;
  if (threads > cap) {
    support::log_info(
        "threads_per_rank %d x %d concurrent ranks oversubscribes %u "
        "hardware threads; capping at %d threads per rank",
        requested, concurrent_ranks, hw, cap);
    threads = cap;
  }
  return threads;
}

/// Resolves one per-phase thread knob (ParallelConfig::threads_scan /
/// threads_drain).  0 inherits the already-resolved global
/// threads_per_rank; an explicit request runs through the same
/// hardware-concurrency cap as the global knob.
inline int effective_phase_threads(int requested, int inherited, int ranks,
                                   bool use_threads,
                                   bool allow_oversubscribe) {
  if (requested <= 0) return inherited;
  return effective_threads_per_rank(requested, ranks, use_threads,
                                    allow_oversubscribe);
}

/// The phase-quiescence rule, fed one round's global report at a time: a
/// round in which every rank is ready, nobody did local work, nobody
/// appended a record, and the cumulative record counts balance (nothing
/// in flight) ends the phase.
class PhaseQuiescence {
 public:
  bool round_ends_phase(const StepReport& round) {
    cum_sent_ += round.records_sent;
    cum_received_ += round.records_received;
    return round.ready && round.work == 0 && round.records_sent == 0 &&
           cum_sent_ == cum_received_;
  }

 private:
  std::uint64_t cum_sent_ = 0;
  std::uint64_t cum_received_ = 0;
};

/// Round hooks of run_bsp: after_step(rank) runs right after that rank's
/// superstep, on its thread and as its actor; close_round() once per
/// round while every rank is parked, before the quiescence decision.  The
/// default suits endpoints that deliver on send (msg::ThreadWorld).
struct NoRoundHooks {
  void after_step(std::size_t /*rank*/) {}
  void close_round() {}
};

/// The round hooks of a host build over a msg::RoundWorld: each round
/// closes by delivering its messages to the next.
struct RoundDelivery {
  msg::RoundWorld& world;
  void after_step(std::size_t /*rank*/) {}
  void close_round() { world.deliver_round(); }
};

/// The BSP round loop.  Each round every rank advances if the last round
/// ended a phase, then steps; the barrier's completion step closes the
/// round and lets PhaseQuiescence decide whether it ended a phase (or,
/// once every engine is done(), the run).  With `use_threads` each rank
/// is a lane on its own OS thread, otherwise the calling thread is one
/// lane stepping the ranks in turn; over a msg::RoundWorld both are the
/// same run, as a round sees only what earlier rounds delivered.
///
/// A scheduled rank crash (msg::RankCrash out of superstep()) drops its
/// lane from the barrier; the round closes with a stop decision and
/// without close_round(), and the exception is rethrown once every lane
/// has returned.
template <typename Engine, typename Hooks = NoRoundHooks>
std::uint64_t run_bsp(std::vector<std::unique_ptr<Engine>>& engines,
                      bool use_threads, Hooks&& hooks = {}) {
  const support::ScopedPhase phase(support::BspPhase::kCompute);
  const std::size_t ranks = engines.size();
  const std::size_t lanes = use_threads ? ranks : 1;
  std::vector<StepReport> reports(ranks);
  PhaseQuiescence quiescence;
  std::uint64_t rounds = 0;
  enum class Decision { kContinue, kAdvance, kStop };
  Decision decision = Decision::kContinue;
  std::exception_ptr crash;  // written before its lane leaves the barrier
  support::Mutex crash_mutex;

  auto close_round = [&]() noexcept {
    // Acts as the driver: engine state is read-only here.
    const support::ScopedActor actor(-1);
    const support::ScopedPhase exchange(support::BspPhase::kExchange);
    ++rounds;
    if (crash) {
      decision = Decision::kStop;
      return;
    }
    RETRA_CHECK_MSG(rounds < kRoundLimit, "BSP round limit exceeded");
    hooks.close_round();
    StepReport global = StepReport::reduction_identity();
    for (const StepReport& report : reports) global += report;
    if (!quiescence.round_ends_phase(global)) {
      decision = Decision::kContinue;
    } else if (engines.front()->done()) {
      decision = Decision::kStop;
    } else {
      decision = Decision::kAdvance;
    }
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(lanes), close_round);

  // A lane steps ranks first, first + lanes, ...  Every lane reads the
  // same decision, which only the next completion step rewrites.
  auto lane = [&](std::size_t first) {
    try {
      while (true) {
        for (std::size_t rank = first; rank < ranks; rank += lanes) {
          const support::ScopedActor actor(static_cast<int>(rank));
          if (decision == Decision::kAdvance) engines[rank]->advance();
          reports[rank] = engines[rank]->superstep();
          hooks.after_step(rank);
        }
        sync.arrive_and_wait();
        if (decision == Decision::kStop) return;
      }
    } catch (const msg::RankCrash&) {
      {
        const support::MutexLock lock(crash_mutex);
        if (!crash) crash = std::current_exception();
      }
      sync.arrive_and_drop();
    }
  };

  if (!use_threads) {
    lane(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (std::size_t first = 0; first < lanes; ++first) {
      threads.emplace_back(lane, first);
    }
    for (std::thread& thread : threads) thread.join();
  }
  if (crash) std::rethrow_exception(crash);
  return rounds;
}

/// run_bsp's threaded setting by name, hooks optional.
template <typename Engine, typename Hooks = NoRoundHooks>
std::uint64_t run_bsp_threads(std::vector<std::unique_ptr<Engine>>& engines,
                              Hooks&& hooks = {}) {
  return run_bsp(engines, true, std::forward<Hooks>(hooks));
}

/// Asynchronous driver (ablation A2): ranks run supersteps continuously
/// with no barrier — messages are processed whenever they arrive, as in a
/// message-driven implementation.  Phase boundaries still need global
/// agreement; rank 0 doubles as the coordinator and detects quiescence
/// with a two-snapshot protocol:
///
///   snapshot A of (records sent, received, per-rank activity counters)
///   with sent == received; wait until every rank has since completed two
///   further whole supersteps (each drains the entire inbox); snapshot B.
///   If nothing changed, no record is in flight and no rank has work, so
///   the phase is over — the coordinator bumps the epoch and every rank
///   advances its engine when it observes the bump.
///
/// Returns the total number of supersteps executed across all ranks.
template <typename Engine>
std::uint64_t run_async_threads(std::vector<std::unique_ptr<Engine>>& engines) {
  const support::ScopedPhase phase(support::BspPhase::kCompute);
  const std::size_t ranks = engines.size();
  std::atomic<std::uint64_t> total_sent{0};
  std::atomic<std::uint64_t> total_received{0};
  std::atomic<std::uint64_t> total_steps{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> epoch{0};
  struct alignas(64) RankState {
    std::atomic<std::uint64_t> steps{0};
    std::atomic<std::uint64_t> activity{0};
    std::atomic<std::uint64_t> applied_epoch{0};
    std::atomic<bool> ready{false};
  };
  std::vector<RankState> state(ranks);
  std::exception_ptr crash;
  support::Mutex crash_mutex;

  // One superstep of `rank`, published to the coordinator.
  auto step_once = [&](std::size_t rank, std::uint64_t& local_steps) {
    const auto step = engines[rank]->superstep();
    ++local_steps;
    total_steps.fetch_add(1, std::memory_order_relaxed);
    if (step.records_sent) {
      total_sent.fetch_add(step.records_sent, std::memory_order_acq_rel);
    }
    if (step.records_received) {
      total_received.fetch_add(step.records_received,
                               std::memory_order_acq_rel);
    }
    if (step.records_sent || step.records_received || step.work) {
      state[rank].activity.fetch_add(1, std::memory_order_acq_rel);
    }
    state[rank].ready.store(step.ready, std::memory_order_release);
    state[rank].steps.store(local_steps, std::memory_order_release);
    RETRA_CHECK_MSG(local_steps < kRoundLimit,
                    "async superstep limit exceeded");
  };

  auto loop = [&](std::size_t rank) {
    std::uint64_t local_steps = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Apply any pending phase transition first.
      const std::uint64_t e = epoch.load(std::memory_order_acquire);
      if (state[rank].applied_epoch.load(std::memory_order_relaxed) < e) {
        engines[rank]->advance();
        state[rank].applied_epoch.store(e, std::memory_order_release);
        continue;
      }
      step_once(rank, local_steps);
      if (rank != 0) {
        std::this_thread::yield();
        continue;
      }

      // Coordinator: two-snapshot quiescence detection.
      const std::uint64_t sent_a = total_sent.load();
      const std::uint64_t received_a = total_received.load();
      if (sent_a != received_a) continue;
      bool all_ready = true;
      std::vector<std::uint64_t> steps_a(ranks), activity_a(ranks);
      for (std::size_t r = 0; r < ranks; ++r) {
        all_ready = all_ready && state[r].ready.load();
        steps_a[r] = state[r].steps.load();
        activity_a[r] = state[r].activity.load();
      }
      if (!all_ready) continue;
      // Wait for two fresh supersteps everywhere (the first may have been
      // in progress during snapshot A).
      for (std::size_t r = 0; r < ranks; ++r) {
        while (state[r].steps.load(std::memory_order_acquire) <
                   steps_a[r] + 2 &&
               !stop.load(std::memory_order_relaxed)) {
          if (r == 0) {
            // The coordinator must keep stepping its own engine.
            step_once(0, local_steps);
          } else {
            std::this_thread::yield();
          }
        }
      }
      bool unchanged = total_sent.load() == sent_a &&
                       total_received.load() == received_a;
      for (std::size_t r = 0; unchanged && r < ranks; ++r) {
        unchanged = state[r].activity.load() == activity_a[r] &&
                    state[r].ready.load();
      }
      if (!unchanged) continue;

      // Phase is globally quiescent.
      if (engines[0]->done()) {
        stop.store(true, std::memory_order_release);
        break;
      }
      const std::uint64_t next = epoch.load() + 1;
      epoch.store(next, std::memory_order_release);
      engines[0]->advance();
      state[0].applied_epoch.store(next, std::memory_order_release);
      // Wait until every rank has advanced before resuming detection, so
      // the next phase starts from a consistent state.
      for (std::size_t r = 1; r < ranks; ++r) {
        while (state[r].applied_epoch.load(std::memory_order_acquire) <
                   next &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
      }
    }
  };

  auto body = [&](std::size_t rank) {
    const support::ScopedActor actor(static_cast<int>(rank));
    try {
      loop(rank);
    } catch (const msg::RankCrash&) {
      {
        const support::MutexLock lock(crash_mutex);
        if (!crash) crash = std::current_exception();
      }
      stop.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    threads.emplace_back(body, rank);
  }
  for (std::thread& thread : threads) thread.join();
  if (crash) std::rethrow_exception(crash);
  return total_steps.load();
}

}  // namespace retra::para
