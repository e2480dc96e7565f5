// Multi-producer single-consumer message queue backing the thread world.
#pragma once

#include <deque>

#include "retra/msg/message.hpp"
#include "retra/support/sync.hpp"
#include "retra/support/thread_annotations.hpp"

namespace retra::msg {

class Mailbox {
 public:
  void push(Message message) RETRA_EXCLUDES(mutex_);
  bool try_pop(Message& out) RETRA_EXCLUDES(mutex_);

 private:
  support::Mutex mutex_;
  std::deque<Message> queue_ RETRA_GUARDED_BY(mutex_);
};

}  // namespace retra::msg
