#include "retra/msg/round_world.hpp"

#include "retra/support/check.hpp"

namespace retra::msg {

RoundWorld::RoundWorld(int ranks)
    : outboxes_(support::to_size(ranks)), inboxes_(support::to_size(ranks)) {
  RETRA_CHECK(ranks >= 1);
  endpoints_.reserve(support::to_size(ranks));
  for (int r = 0; r < ranks; ++r) {
    endpoints_.push_back(
        std::make_unique<WorldEndpoint<RoundWorld>>(r, *this));
  }
}

Comm& RoundWorld::endpoint(int rank) {
  RETRA_CHECK(rank >= 0 && rank < size());
  return *endpoints_[support::to_size(rank)];
}

void RoundWorld::post(Message message, int dest) {
  outboxes_[support::to_size(message.source)].push_back(
      Envelope{dest, std::move(message)});
}

bool RoundWorld::take(int rank, Message& out) {
  auto& inbox = inboxes_[support::to_size(rank)];
  if (inbox.empty()) return false;
  out = std::move(inbox.front());
  inbox.pop_front();
  return true;
}

}  // namespace retra::msg
