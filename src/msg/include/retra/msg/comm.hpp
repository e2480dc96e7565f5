// Per-rank communication endpoint.
//
// The distributed engine talks to a Comm only; implementations are the
// round-delivered BSP world of host and simulated builds
// (retra/msg/round_world.hpp) and the async driver's thread world
// (retra/msg/thread_comm.hpp).  Only non-blocking primitives exist: the
// engine is written as bulk-synchronous supersteps and a driver supplies
// barriers and reductions between steps.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "retra/msg/message.hpp"
#include "retra/msg/work_meter.hpp"
#include "retra/support/check.hpp"

namespace retra::msg {

/// Cumulative transport-level statistics of one endpoint.
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

class Comm {
 public:
  virtual ~Comm() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Enqueues a message; never blocks.  Self-sends are permitted.
  virtual void send(int dest, std::uint8_t tag,
                    std::vector<std::byte> payload) = 0;

  /// Pops one inbound message if available.
  virtual bool try_recv(Message& out) = 0;

  WorkMeter& meter() { return meter_; }
  const WorkMeter& meter() const { return meter_; }
  const TransportStats& transport_stats() const { return stats_; }

 protected:
  WorkMeter meter_;
  TransportStats stats_;
};

/// The endpoint a world hands out for `rank`: it checks destinations and
/// counts transport stats, and leaves queueing to the world's
/// post(message, dest) and take(rank, out).
template <typename World>
class WorldEndpoint : public Comm {
 public:
  WorldEndpoint(int rank, World& world) : rank_(rank), world_(world) {}

  int rank() const override { return rank_; }
  int size() const override { return world_.size(); }

  void send(int dest, std::uint8_t tag,
            std::vector<std::byte> payload) override {
    RETRA_CHECK(dest >= 0 && dest < size());
    ++stats_.messages_sent;
    stats_.bytes_sent += payload.size();
    world_.post(Message{rank_, tag, std::move(payload)}, dest);
  }

  bool try_recv(Message& out) override {
    if (!world_.take(rank_, out)) return false;
    ++stats_.messages_received;
    stats_.bytes_received += out.payload.size();
    return true;
  }

 private:
  int rank_;
  World& world_;
};

}  // namespace retra::msg
