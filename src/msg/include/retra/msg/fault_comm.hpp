// Deterministic fault injection for the message transport.
//
// The paper's production runs were multi-day builds on 64 Ethernet
// workstations; at that scale the transport loses, duplicates, reorders
// and delays frames, and nodes die mid-build.  FaultyComm is a msg::Comm
// decorator that injects exactly those failures below the reliability
// sublayer (retra/msg/reliable_comm.hpp), driven by a seeded
// support::Xoshiro256 so every failure run is replayable from its seed:
// the nth send of a given rank always suffers the same fate.
//
// A scheduled crash models a node dying mid-level: once armed (see
// set_level), the endpoint throws RankCrash from the configured send
// onward and stays dead.  The BSP/async drivers translate the exception
// into a clean abort of the level so a later invocation can resume from
// the checkpoint directory.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "retra/msg/comm.hpp"
#include "retra/msg/reliable_comm.hpp"
#include "retra/support/numeric.hpp"
#include "retra/support/rng.hpp"

namespace retra::msg {

/// A replayable fault schedule.  Probabilities apply independently to
/// every frame handed to the transport (data and ack frames alike); the
/// crash fields schedule one rank's death at one build level.
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  double drop = 0.0;       // frame silently lost
  double duplicate = 0.0;  // frame delivered a second time, slightly late
  double reorder = 0.0;    // frame swapped behind the sender's next frame
  double delay = 0.0;      // frame held for 1..max_delay_ticks sender ticks
  int max_delay_ticks = 16;
  double corrupt = 0.0;    // one payload byte flipped
  int crash_rank = -1;  // rank that dies (-1: nobody)
  int crash_level = 0;  // level at which the crash is armed
  /// The rank completes this many sends of the crash level, then dies.
  std::uint64_t crash_after_sends = 0;

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 ||
           corrupt > 0 || crash_rank >= 0;
  }
};

/// Cumulative injected-fault counters of one endpoint.
struct FaultStats {
  std::uint64_t forwarded = 0;  // frames passed through unharmed
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
  std::uint64_t corrupted = 0;

  FaultStats& operator+=(const FaultStats& o) {
    forwarded += o.forwarded;
    dropped += o.dropped;
    duplicated += o.duplicated;
    reordered += o.reordered;
    delayed += o.delayed;
    corrupted += o.corrupted;
    return *this;
  }
  FaultStats operator-(const FaultStats& o) const {
    FaultStats d = *this;
    d.forwarded -= o.forwarded;
    d.dropped -= o.dropped;
    d.duplicated -= o.duplicated;
    d.reordered -= o.reordered;
    d.delayed -= o.delayed;
    d.corrupted -= o.corrupted;
    return d;
  }
};

/// Thrown by a crashed endpoint; drivers turn it into a clean abort.
struct RankCrash {
  int rank = -1;
  int level = -1;
};

class FaultyComm : public Comm {
 public:
  FaultyComm(Comm& inner, const FaultPlan& plan);

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  void send(int dest, std::uint8_t tag,
            std::vector<std::byte> payload) override;
  bool try_recv(Message& out) override;

  /// Arms the scheduled crash when `level` matches the plan's crash level
  /// (and this endpoint is the crash rank); resets the per-level send
  /// count.  Called by build_parallel at the start of every level.
  void set_level(int level);

  bool crashed() const { return crashed_; }
  const FaultStats& fault_stats() const { return fstats_; }

 private:
  struct Held {
    std::uint64_t due = 0;
    int dest = 0;
    std::uint8_t tag = 0;
    std::vector<std::byte> payload;
  };

  /// Advances virtual time and releases due held frames.
  void tick();
  void forward(int dest, std::uint8_t tag, std::vector<std::byte> payload);

  Comm& inner_;
  FaultPlan plan_;
  support::Xoshiro256 rng_;
  std::uint64_t now_ = 0;
  std::uint64_t level_sends_ = 0;
  int level_ = -1;
  bool crash_armed_ = false;
  bool crashed_ = false;
  std::deque<Held> held_;  // delayed / reordered frames awaiting release
  FaultStats fstats_;
};

/// Convenience bundle: every rank of a RoundWorld or ThreadWorld wrapped
/// in FaultyComm + ReliableComm, which is the stack build_parallel and the
/// chaos tests run engines on.  endpoint(r) is the outermost (reliable)
/// endpoint; all WorkMeter charges land there.
class FaultWorld {
 public:
  template <typename World>
  FaultWorld(World& world, const FaultPlan& plan,
             const ReliableConfig& reliable = {}) {
    for (int rank = 0; rank < world.size(); ++rank) {
      faulty_.push_back(
          std::make_unique<FaultyComm>(world.endpoint(rank), plan));
      reliable_.push_back(
          std::make_unique<ReliableComm>(*faulty_.back(), reliable));
    }
  }

  int size() const { return static_cast<int>(reliable_.size()); }
  Comm& endpoint(int rank) { return *reliable_[support::to_size(rank)]; }
  FaultyComm& faulty(int rank) {
    return *faulty_[support::to_size(rank)];
  }
  ReliableComm& reliable(int rank) {
    return *reliable_[support::to_size(rank)];
  }

  /// Arms the scheduled crash on every endpoint (only the plan's crash
  /// rank reacts).
  void set_level(int level);

 private:
  std::vector<std::unique_ptr<FaultyComm>> faulty_;
  std::vector<std::unique_ptr<ReliableComm>> reliable_;
};

}  // namespace retra::msg
