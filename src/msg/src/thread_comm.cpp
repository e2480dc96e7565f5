#include "retra/msg/thread_comm.hpp"

#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::msg {

ThreadWorld::ThreadWorld(int ranks)
    : mailboxes_(support::to_size(ranks)) {
  RETRA_CHECK(ranks >= 1);
  endpoints_.reserve(support::to_size(ranks));
  for (int r = 0; r < ranks; ++r) {
    endpoints_.push_back(
        std::make_unique<WorldEndpoint<ThreadWorld>>(r, *this));
  }
}

Comm& ThreadWorld::endpoint(int rank) {
  RETRA_CHECK(rank >= 0 && rank < size());
  return *endpoints_[support::to_size(rank)];
}

void ThreadWorld::post(Message message, int dest) {
  mailboxes_[support::to_size(dest)].push(std::move(message));
}

bool ThreadWorld::take(int rank, Message& out) {
  return mailboxes_[support::to_size(rank)].try_pop(out);
}

}  // namespace retra::msg
