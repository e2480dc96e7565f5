// Discrete-event bulk-synchronous pricing.
//
// The simulated build runs the same rounds as a host build (para::run_bsp
// over a msg::RoundWorld); ClusterClock is the pair of round hooks that
// prices them against virtual time.  Each round,
//   1. every rank's superstep executes; its WorkMeter delta is priced by
//      the machine model (plus the receive overhead of the messages it
//      just drained);
//   2. the round's messages are played over the shared-medium Ethernet
//      model in (source rank, send order) as they are delivered — the
//      medium serialises, so contention emerges by construction;
//   3. the closing barrier/allreduce is priced and the round ends at the
//      latest of all ranks and deliveries.
// The result carries the virtual wall-clock plus a per-rank
// compute / send / receive / idle breakdown (figure F3) — all fully
// deterministic, which is what lets a single-core container reproduce the
// shape of a 64-node 1995 cluster run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "retra/msg/round_world.hpp"
#include "retra/msg/work_meter.hpp"
#include "retra/sim/cluster_model.hpp"
#include "retra/sim/trace.hpp"

namespace retra::sim {

struct RankBreakdown {
  double compute_s = 0;  // priced algorithmic work
  double send_s = 0;     // per-message sender software overhead
  double recv_s = 0;     // per-message receiver software overhead
  double idle_s = 0;     // waiting at barriers for stragglers/network

  double busy_s() const { return compute_s + send_s + recv_s; }
};

struct SimRunResult {
  double time_s = 0;  // virtual wall clock of the whole run
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  double network_busy_s = 0;  // shared-medium occupancy
  double barrier_s = 0;       // summed barrier cost
  std::vector<RankBreakdown> per_rank;

  void accumulate(const SimRunResult& other) {
    time_s += other.time_s;
    rounds += other.rounds;
    messages += other.messages;
    payload_bytes += other.payload_bytes;
    network_busy_s += other.network_busy_s;
    barrier_s += other.barrier_s;
    if (per_rank.size() < other.per_rank.size()) {
      per_rank.resize(other.per_rank.size());
    }
    for (std::size_t r = 0; r < other.per_rank.size(); ++r) {
      per_rank[r].compute_s += other.per_rank[r].compute_s;
      per_rank[r].send_s += other.per_rank[r].send_s;
      per_rank[r].recv_s += other.per_rank[r].recv_s;
      per_rank[r].idle_s += other.per_rank[r].idle_s;
    }
  }
};

/// Round hooks that price one BSP run of para::run_bsp on the cluster
/// model (the driver calls after_step() after each rank's superstep and
/// close_round() once all ranks have stepped; after_step touches only
/// its rank's state).  One clock prices one engine set from time 0.
class ClusterClock {
 public:
  ClusterClock(msg::RoundWorld& world, const ClusterModel& model,
               TraceSink* trace = nullptr);

  /// Step 1: prices the rank's WorkMeter delta plus the receive overhead
  /// of the messages its superstep just drained.
  void after_step(std::size_t rank);
  /// Steps 2 and 3: plays the round's messages over the Ethernet model
  /// as it delivers them, charges the barrier, and writes the trace row.
  void close_round();

  /// The run priced so far; time_s is the end of the last closed round.
  const SimRunResult& result() const { return result_; }

 private:
  msg::RoundWorld& world_;
  const ClusterModel& model_;
  TraceSink* trace_;
  SimRunResult result_;
  std::vector<double> pending_recv_;  // charged to the next superstep
  std::vector<double> rank_clock_;    // when each rank goes idle
  std::vector<msg::WorkMeter> meter_before_;
};

}  // namespace retra::sim
