// Reliable delivery over a lossy transport.
//
// The BSP drivers and the async coordinator detect quiescence by exact
// record accounting (cumulative sent == cumulative received), so the
// engine must see every logical message exactly once and in per-source
// order even when the transport below drops, duplicates, reorders,
// delays or corrupts frames.  ReliableComm is a msg::Comm decorator
// inserted between the Combiner and the transport that provides exactly
// that:
//
//   * every logical message becomes a DATA frame carrying a
//     per-destination sequence number and an FNV-1a checksum;
//   * the receiver acknowledges cumulatively, suppresses duplicates by
//     sequence number, buffers out-of-order frames, and drops frames
//     whose checksum does not verify (a retransmission heals them);
//   * the sender keeps unacknowledged frames and retransmits on a
//     tick-based timer with bounded exponential backoff.  It ticks once
//     per drained inbox (the try_recv that finds nothing), which every
//     engine reaches once per superstep, so retries need no extra thread
//     and a fault-free run, whose acks return two rounds after their
//     frames, never retransmits however many frames a superstep sends.
//
// A record handed to send() is only counted "received" by the engine
// when it is delivered here, so in-flight (lost, held, unacked) records
// keep the drivers' quiescence checks honest: a phase cannot end while
// the reliability layer still owes a delivery.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "retra/msg/comm.hpp"

namespace retra::msg {

/// Inner-frame tags; engine tags live in the low range (retra/para uses
/// 1..4), so the top of the byte is reserved for the protocol.
inline constexpr std::uint8_t kTagReliableData = 0xF0;
inline constexpr std::uint8_t kTagReliableAck = 0xF1;

/// On-wire frame layouts.
///   DATA frame: [u64 checksum][u64 seq][u8 logical tag][payload...]
///   ACK frame:  [u64 checksum][u64 cumulative ack]
/// The checksum covers every byte after itself, so corruption anywhere
/// in a frame (header or payload) is detected.
inline constexpr std::size_t kReliableDataHeader =
    sizeof(std::uint64_t) + sizeof(std::uint64_t) + sizeof(std::uint8_t);
inline constexpr std::size_t kReliableAckSize =
    sizeof(std::uint64_t) + sizeof(std::uint64_t);
static_assert(kReliableDataHeader == 17 && kReliableAckSize == 16,
              "reliable frame layout is wire-visible; do not change "
              "field widths casually");

/// FNV-1a over a byte range (local copy so msg does not depend on db).
constexpr std::uint64_t frame_checksum(const std::byte* data,
                                       std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint64_t>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct ReliableConfig {
  std::uint32_t retry_ticks = 8;    // ticks before the first retransmit
  std::uint32_t backoff_cap = 128;  // retry interval ceiling (doubling)
};

/// Cumulative protocol counters of one endpoint.
struct ReliableStats {
  std::uint64_t data_sent = 0;   // first transmissions (not retries)
  std::uint64_t retries = 0;     // retransmitted frames
  std::uint64_t acks_sent = 0;
  std::uint64_t delivered = 0;   // logical messages handed to the engine
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t corrupt_dropped = 0;     // frames failing the checksum
  std::uint64_t out_of_order_held = 0;   // frames buffered for reordering

  ReliableStats& operator+=(const ReliableStats& o) {
    data_sent += o.data_sent;
    retries += o.retries;
    acks_sent += o.acks_sent;
    delivered += o.delivered;
    duplicates_suppressed += o.duplicates_suppressed;
    corrupt_dropped += o.corrupt_dropped;
    out_of_order_held += o.out_of_order_held;
    return *this;
  }
  ReliableStats operator-(const ReliableStats& o) const {
    ReliableStats d = *this;
    d.data_sent -= o.data_sent;
    d.retries -= o.retries;
    d.acks_sent -= o.acks_sent;
    d.delivered -= o.delivered;
    d.duplicates_suppressed -= o.duplicates_suppressed;
    d.corrupt_dropped -= o.corrupt_dropped;
    d.out_of_order_held -= o.out_of_order_held;
    return d;
  }
};

class ReliableComm : public Comm {
 public:
  explicit ReliableComm(Comm& inner, const ReliableConfig& config = {});

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  void send(int dest, std::uint8_t tag,
            std::vector<std::byte> payload) override;
  bool try_recv(Message& out) override;

  const ReliableStats& reliable_stats() const { return rstats_; }
  /// True when every sent frame has been acknowledged (test hook).
  bool all_acked() const;

 private:
  struct Pending {
    std::vector<std::byte> frame;  // encoded DATA frame, resent verbatim
    std::uint64_t due = 0;
    std::uint32_t interval = 0;
  };
  struct PeerTx {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Pending> unacked;
  };
  struct PeerRx {
    std::uint64_t expected = 0;                // next in-order sequence
    std::map<std::uint64_t, Message> held;     // out-of-order frames
  };

  /// Advances the tick and retransmits due unacknowledged frames; called
  /// once per drained inbox.
  void pump();
  void send_ack(int peer);
  void handle_ack(const Message& raw);
  void handle_data(Message raw);

  Comm& inner_;
  ReliableConfig config_;
  std::uint64_t now_ = 0;
  std::vector<PeerTx> tx_;
  std::vector<PeerRx> rx_;
  std::deque<Message> ready_;  // in-order logical messages awaiting recv
  ReliableStats rstats_;
};

}  // namespace retra::msg
