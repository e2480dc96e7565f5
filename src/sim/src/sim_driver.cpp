#include "retra/sim/sim_driver.hpp"

#include <algorithm>

#include "retra/support/numeric.hpp"

namespace retra::sim {

ClusterClock::ClusterClock(msg::RoundWorld& world, const ClusterModel& model,
                           TraceSink* trace)
    : world_(world),
      model_(model),
      trace_(trace),
      pending_recv_(support::to_size(world.size()), 0.0),
      rank_clock_(support::to_size(world.size()), 0.0) {
  result_.per_rank.resize(support::to_size(world.size()));
  for (int r = 0; r < world.size(); ++r) {
    meter_before_.push_back(world.endpoint(r).meter());
  }
}

void ClusterClock::after_step(std::size_t rank) {
  const msg::WorkMeter& meter =
      world_.endpoint(static_cast<int>(rank)).meter();
  msg::WorkMeter delta = meter;
  for (std::size_t k = 0; k < msg::kWorkKinds; ++k) {
    delta.counts[k] -= meter_before_[rank].counts[k];
  }
  meter_before_[rank] = meter;
  const double compute = model_.machine.cpu_seconds(delta);
  result_.per_rank[rank].compute_s += compute;
  result_.per_rank[rank].recv_s += pending_recv_[rank];
  rank_clock_[rank] = result_.time_s + compute + pending_recv_[rank];
  pending_recv_[rank] = 0.0;
}

void ClusterClock::close_round() {
  ++result_.rounds;
  const double now = result_.time_s;  // round start
  const std::uint64_t messages_before = result_.messages;
  const std::uint64_t payload_before = result_.payload_bytes;
  const double network_before = result_.network_busy_s;

  // Network: bridged shared segments, messages in (source rank, send
  // order), as the round delivers them.  The sender
  // pays its software overhead before the frame can contend for its
  // segment; the receiver's overhead is charged to its next superstep.
  std::vector<double> medium_free(support::to_size(model_.net.segments), now);
  double last_delivery = now;
  world_.deliver_round([&](const msg::RoundWorld::Envelope& out) {
    const int src = out.message.source;
    const std::size_t si = support::to_size(src);
    rank_clock_[si] += model_.machine.send_overhead_s;
    result_.per_rank[si].send_s += model_.machine.send_overhead_s;
    const double medium_time =
        model_.net.medium_seconds(out.message.payload.size());
    double& segment_free =
        medium_free[support::to_size(model_.net.segment_of(src))];
    const double start = std::max(segment_free, rank_clock_[si]);
    segment_free = start + medium_time;
    result_.network_busy_s += medium_time;
    last_delivery = std::max(last_delivery, segment_free);
    pending_recv_[support::to_size(out.dest)] +=
        model_.machine.recv_overhead_s;
    ++result_.messages;
    result_.payload_bytes += out.message.payload.size();
  });

  // The barrier closes the round.
  const double barrier = model_.barrier_seconds(world_.size());
  result_.barrier_s += barrier;
  double round_end = last_delivery;
  for (const double clock : rank_clock_) {
    round_end = std::max(round_end, clock);
  }
  for (std::size_t r = 0; r < rank_clock_.size(); ++r) {
    result_.per_rank[r].idle_s += round_end - rank_clock_[r];
  }
  if (trace_) {
    RoundTrace row;
    row.round = result_.rounds;
    row.start_s = now;
    row.end_s = round_end + barrier;
    row.rank_busy_s.reserve(rank_clock_.size());
    for (const double clock : rank_clock_) {
      row.rank_busy_s.push_back(clock - now);
    }
    row.messages = result_.messages - messages_before;
    row.payload_bytes = result_.payload_bytes - payload_before;
    row.network_busy_s = result_.network_busy_s - network_before;
    trace_->add(std::move(row));
  }
  result_.time_s = round_end + barrier;
}

}  // namespace retra::sim
