// The bulk-synchronous message world: what a rank sends in one round is
// received in the next.  Every BSP build — host, sequential or threaded,
// and the cluster model — exchanges its messages here, so they all run
// the same rounds.  Only the owning rank sends on an endpoint during a
// superstep, so its outbox needs no lock; deliver_round() runs while every
// rank is parked and delivers in (source rank, send order), the order the
// cluster model prices.  msg::ThreadWorld serves code without rounds.
#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "retra/msg/comm.hpp"
#include "retra/support/numeric.hpp"

namespace retra::msg {

class RoundWorld {
 public:
  /// A message in flight; the message's source is its sender.
  struct Envelope {
    int dest = 0;
    Message message;
  };

  explicit RoundWorld(int ranks);

  int size() const { return static_cast<int>(endpoints_.size()); }
  Comm& endpoint(int rank);

  /// Ends the round: hands every message sent in it to `visit`, in
  /// (source rank, send order), then into its destination's inbox, where
  /// the next round receives it.  Call only while no rank is stepping.
  template <typename Visit>
  void deliver_round(Visit&& visit) {
    for (std::vector<Envelope>& outbox : outboxes_) {
      for (Envelope& envelope : outbox) {
        visit(std::as_const(envelope));
        inboxes_[support::to_size(envelope.dest)].push_back(
            std::move(envelope.message));
      }
      outbox.clear();
    }
  }
  void deliver_round() {
    deliver_round([](const Envelope&) {});
  }

 private:
  friend class WorldEndpoint<RoundWorld>;
  void post(Message message, int dest);
  bool take(int rank, Message& out);

  std::vector<std::vector<Envelope>> outboxes_;  // by source rank
  std::vector<std::deque<Message>> inboxes_;     // by destination rank
  std::vector<std::unique_ptr<Comm>> endpoints_;
};

}  // namespace retra::msg
