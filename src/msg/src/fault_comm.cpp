#include "retra/msg/fault_comm.hpp"

#include <algorithm>
#include <utility>

#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::msg {

FaultyComm::FaultyComm(Comm& inner, const FaultPlan& plan)
    : inner_(inner),
      plan_(plan),
      // Every rank draws from its own deterministic stream: the fate of a
      // rank's nth frame depends only on (seed, rank, n).
      rng_(support::splitmix64(plan.seed) ^
           support::splitmix64(0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(inner.rank()) +
                                1))) {}

void FaultyComm::set_level(int level) {
  level_ = level;
  level_sends_ = 0;
  crash_armed_ = plan_.crash_rank == inner_.rank() &&
                 plan_.crash_level == level;
}

void FaultyComm::tick() {
  ++now_;
  while (!held_.empty() && held_.front().due <= now_) {
    Held held = std::move(held_.front());
    held_.pop_front();
    forward(held.dest, held.tag, std::move(held.payload));
  }
}

void FaultyComm::forward(int dest, std::uint8_t tag,
                         std::vector<std::byte> payload) {
  ++fstats_.forwarded;
  inner_.send(dest, tag, std::move(payload));
}

void FaultyComm::send(int dest, std::uint8_t tag,
                      std::vector<std::byte> payload) {
  if (crashed_) throw RankCrash{inner_.rank(), level_};
  tick();
  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();
  if (crash_armed_ && ++level_sends_ > plan_.crash_after_sends) {
    // The rank dies mid-send: this frame and everything after it is lost.
    crashed_ = true;
    throw RankCrash{inner_.rank(), level_};
  }
  if (plan_.corrupt > 0 && rng_.chance(plan_.corrupt) && !payload.empty()) {
    ++fstats_.corrupted;
    const std::uint64_t victim = rng_.below(payload.size());
    payload[victim] ^= std::byte{0x20};
  }
  if (plan_.drop > 0 && rng_.chance(plan_.drop)) {
    ++fstats_.dropped;
    return;
  }
  if (plan_.duplicate > 0 && rng_.chance(plan_.duplicate)) {
    // The copy trails the original by a tick so it arrives distinctly.
    ++fstats_.duplicated;
    held_.push_back(Held{now_ + 1, dest, tag, payload});
  }
  if (plan_.delay > 0 && rng_.chance(plan_.delay)) {
    ++fstats_.delayed;
    const std::uint64_t ticks =
        1 + rng_.below(static_cast<std::uint64_t>(
                std::max(plan_.max_delay_ticks, 1)));
    held_.push_back(Held{now_ + ticks, dest, tag, std::move(payload)});
    return;
  }
  if (plan_.reorder > 0 && rng_.chance(plan_.reorder)) {
    // Held for exactly one tick: the sender's next frame overtakes it.
    ++fstats_.reordered;
    held_.push_back(Held{now_ + 1, dest, tag, std::move(payload)});
    return;
  }
  forward(dest, tag, std::move(payload));
}

bool FaultyComm::try_recv(Message& out) {
  if (crashed_) throw RankCrash{inner_.rank(), level_};
  tick();
  if (!inner_.try_recv(out)) return false;
  ++stats_.messages_received;
  stats_.bytes_received += out.payload.size();
  return true;
}

void FaultWorld::set_level(int level) {
  for (auto& faulty : faulty_) faulty->set_level(level);
}

}  // namespace retra::msg
