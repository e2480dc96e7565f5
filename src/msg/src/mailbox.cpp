#include "retra/msg/mailbox.hpp"

namespace retra::msg {

void Mailbox::push(Message message) {
  const support::MutexLock lock(mutex_);
  queue_.push_back(std::move(message));
}

bool Mailbox::try_pop(Message& out) {
  const support::MutexLock lock(mutex_);
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

}  // namespace retra::msg
