#include "retra/msg/reliable_comm.hpp"

#include <algorithm>
#include <cstring>

#include "retra/obs/metrics.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::msg {

using support::to_size;

namespace {

void put_u64(std::byte* out, std::uint64_t v) {
  std::memcpy(out, &v, sizeof v);
}

std::uint64_t get_u64(const std::byte* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof v);
  return v;
}

}  // namespace

ReliableComm::ReliableComm(Comm& inner, const ReliableConfig& config)
    : inner_(inner), config_(config), tx_(to_size(inner.size())),
      rx_(to_size(inner.size())) {
  RETRA_CHECK(config_.retry_ticks >= 1);
  RETRA_CHECK(config_.backoff_cap >= config_.retry_ticks);
}

void ReliableComm::send(int dest, std::uint8_t tag,
                        std::vector<std::byte> payload) {
  RETRA_CHECK(dest >= 0 && dest < size());
  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();
  PeerTx& peer = tx_[to_size(dest)];
  const std::uint64_t seq = peer.next_seq++;

  std::vector<std::byte> frame(kReliableDataHeader + payload.size());
  put_u64(frame.data() + 8, seq);
  frame[16] = static_cast<std::byte>(tag);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kReliableDataHeader, payload.data(), payload.size());
  }
  put_u64(frame.data(),
          frame_checksum(frame.data() + 8, frame.size() - 8));

  Pending& pending = peer.unacked[seq];
  pending.interval = config_.retry_ticks;
  pending.due = now_ + pending.interval;
  pending.frame = frame;  // keep a verbatim copy for retransmission
  ++rstats_.data_sent;
  RETRA_OBS_INC(obs::Id::kReliableDataSent);
  inner_.send(dest, kTagReliableData, std::move(frame));
}

bool ReliableComm::try_recv(Message& out) {
  Message raw;
  while (inner_.try_recv(raw)) {
    if (raw.tag == kTagReliableAck) {
      handle_ack(raw);
    } else if (raw.tag == kTagReliableData) {
      handle_data(std::move(raw));
    } else {
      RETRA_CHECK_MSG(false, "non-protocol frame on a reliable endpoint");
    }
  }
  if (ready_.empty()) {
    // The inbox is drained: once per superstep, after this step's acks.
    pump();
    return false;
  }
  out = std::move(ready_.front());
  ready_.pop_front();
  ++stats_.messages_received;
  stats_.bytes_received += out.payload.size();
  ++rstats_.delivered;
  RETRA_OBS_INC(obs::Id::kReliableDelivered);
  return true;
}

bool ReliableComm::all_acked() const {
  for (const PeerTx& peer : tx_) {
    if (!peer.unacked.empty()) return false;
  }
  return true;
}

void ReliableComm::pump() {
  ++now_;
  for (std::size_t dest = 0; dest < tx_.size(); ++dest) {
    for (auto& [seq, pending] : tx_[dest].unacked) {
      if (pending.due > now_) continue;
      ++rstats_.retries;
      RETRA_OBS_INC(obs::Id::kReliableRetries);
      pending.interval = std::min(pending.interval * 2, config_.backoff_cap);
      pending.due = now_ + pending.interval;
      inner_.send(static_cast<int>(dest), kTagReliableData, pending.frame);
    }
  }
}

void ReliableComm::send_ack(int peer) {
  std::vector<std::byte> frame(kReliableAckSize);
  put_u64(frame.data() + 8, rx_[to_size(peer)].expected);
  put_u64(frame.data(), frame_checksum(frame.data() + 8, 8));
  ++rstats_.acks_sent;
  RETRA_OBS_INC(obs::Id::kReliableAcksSent);
  inner_.send(peer, kTagReliableAck, std::move(frame));
}

void ReliableComm::handle_ack(const Message& raw) {
  if (raw.payload.size() != kReliableAckSize ||
      get_u64(raw.payload.data()) !=
          frame_checksum(raw.payload.data() + 8, 8)) {
    ++rstats_.corrupt_dropped;
    RETRA_OBS_INC(obs::Id::kReliableCorruptDropped);
    return;
  }
  const std::uint64_t ack = get_u64(raw.payload.data() + 8);
  auto& unacked = tx_[to_size(raw.source)].unacked;
  unacked.erase(unacked.begin(), unacked.lower_bound(ack));
}

void ReliableComm::handle_data(Message raw) {
  if (raw.payload.size() < kReliableDataHeader ||
      get_u64(raw.payload.data()) !=
          frame_checksum(raw.payload.data() + 8, raw.payload.size() - 8)) {
    ++rstats_.corrupt_dropped;
    RETRA_OBS_INC(obs::Id::kReliableCorruptDropped);
    return;
  }
  const std::uint64_t seq = get_u64(raw.payload.data() + 8);
  const auto tag = static_cast<std::uint8_t>(raw.payload[16]);
  PeerRx& peer = rx_[to_size(raw.source)];
  if (seq < peer.expected) {
    // Already delivered; the ack was lost or the frame was duplicated.
    ++rstats_.duplicates_suppressed;
    RETRA_OBS_INC(obs::Id::kReliableDuplicates);
    send_ack(raw.source);
    return;
  }

  Message logical;
  logical.source = raw.source;
  logical.tag = tag;
  logical.payload.assign(raw.payload.begin() + kReliableDataHeader,
                         raw.payload.end());
  if (seq == peer.expected) {
    ++peer.expected;
    ready_.push_back(std::move(logical));
    // Promote any consecutively-held successors.
    auto it = peer.held.find(peer.expected);
    while (it != peer.held.end()) {
      ready_.push_back(std::move(it->second));
      peer.held.erase(it);
      ++peer.expected;
      it = peer.held.find(peer.expected);
    }
  } else if (peer.held.emplace(seq, std::move(logical)).second) {
    ++rstats_.out_of_order_held;
    RETRA_OBS_INC(obs::Id::kReliableOutOfOrderHeld);
  } else {
    ++rstats_.duplicates_suppressed;
    RETRA_OBS_INC(obs::Id::kReliableDuplicates);
  }
  send_ack(raw.source);
}

}  // namespace retra::msg
