// The deliver-on-send message world: one mailbox per rank, so a message
// can be received as soon as it is sent.  It serves code without rounds
// (the asynchronous driver, ablation A2); BSP builds use the
// round-delivered retra/msg/round_world.hpp.  Rank code must only
// communicate through its endpoint — engines hold no shared state, so
// running each rank on its own OS thread is a faithful stand-in for the
// paper's distributed processes.
#pragma once

#include <memory>
#include <vector>

#include "retra/msg/comm.hpp"
#include "retra/msg/mailbox.hpp"

namespace retra::msg {

class ThreadWorld {
 public:
  explicit ThreadWorld(int ranks);

  int size() const { return static_cast<int>(endpoints_.size()); }
  Comm& endpoint(int rank);

 private:
  friend class WorldEndpoint<ThreadWorld>;
  void post(Message message, int dest);
  bool take(int rank, Message& out);

  std::vector<Mailbox> mailboxes_;
  std::vector<std::unique_ptr<Comm>> endpoints_;
};

}  // namespace retra::msg
