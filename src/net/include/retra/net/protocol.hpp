// The retra-net-v1 wire protocol (docs/PROTOCOL.md is the byte-level
// reference).
//
// Every frame is a fixed 16-byte little-endian header followed by an
// op-specific payload.  The codec here is pure — no sockets, no I/O —
// so the fuzz suite (tests/test_net_protocol.cpp) can drive it with
// arbitrary bytes: malformed input always yields a typed ErrorCode,
// never a crash, a hang, or an unbounded allocation.  FrameBuffer is the
// incremental decoder the server and client both feed from their socket
// reads; the encode_* helpers build complete frames ready to write.
//
// Requests carry a client-chosen request_id that the matching response
// echoes, so a pipelined client can match out-of-order responses without
// any ordering contract beyond "one response per request".
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "retra/db/database.hpp"
#include "retra/index/board_index.hpp"
#include "retra/msg/wire.hpp"

namespace retra::net {

/// "RTN1" as the first four bytes of every frame.
inline constexpr std::uint32_t kMagic = 0x314E5452u;
inline constexpr std::uint8_t kVersion = 1;

/// Hard ceiling on one frame's payload; larger announcements are a
/// protocol error (the peer is garbage or hostile), never an allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

/// Most lookups one BATCH_QUERY frame may carry (fits kMaxPayloadBytes).
inline constexpr std::uint32_t kMaxBatchLookups = 1u << 16;

enum class Op : std::uint8_t {
  // Requests.
  kPing = 1,
  kQuery = 2,
  kBatchQuery = 3,
  kStats = 4,
  // Responses.
  kPong = 65,
  kValue = 66,
  kBatchValues = 67,
  kStatsReply = 68,
  kError = 69,
};

constexpr bool is_request(Op op) {
  return op == Op::kPing || op == Op::kQuery || op == Op::kBatchQuery ||
         op == Op::kStats;
}
constexpr bool is_response(Op op) {
  return op == Op::kPong || op == Op::kValue || op == Op::kBatchValues ||
         op == Op::kStatsReply || op == Op::kError;
}

/// Typed protocol errors, carried in the header's `code` field of an
/// ERROR response.  kBusy is the admission-control shed signal: the
/// request was well-formed but the server refused it under load.
enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kMalformed = 1,       // payload truncated or inconsistent with its op
  kBadMagic = 2,        // frame did not start with kMagic
  kBadVersion = 3,      // unknown protocol version
  kBadOp = 4,           // unknown or unexpected op
  kBadLevel = 5,        // level outside the served database
  kBadIndex = 6,        // index outside its level
  kBadBoard = 7,        // board addressing a level outside the database
  kBusy = 8,            // shed by admission control; retry later
  kOversizedFrame = 9,  // announced payload exceeds kMaxPayloadBytes
};

std::string_view error_name(ErrorCode code);

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t version = kVersion;
  std::uint8_t op = 0;
  std::uint16_t code = 0;  // ErrorCode on kError responses, else 0
  std::uint32_t request_id = 0;
  std::uint32_t payload_bytes = 0;

  static constexpr std::size_t kWireSize = 4 + 1 + 1 + 2 + 4 + 4;

  void encode(std::byte* out) const {
    msg::WireWriter w(out);
    w.u32(magic);
    w.u8(version);
    w.u8(op);
    w.i16(static_cast<std::int16_t>(code));
    w.u32(request_id);
    w.u32(payload_bytes);
  }
  static FrameHeader decode(msg::WireReader& r) {
    FrameHeader h;
    h.magic = r.u32();
    h.version = r.u8();
    h.op = r.u8();
    h.code = static_cast<std::uint16_t>(r.i16());
    h.request_id = r.u32();
    h.payload_bytes = r.u32();
    return h;
  }
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(std::uint32_t) + sizeof(std::uint8_t) +
                  sizeof(std::uint8_t) + sizeof(std::uint16_t) +
                  sizeof(std::uint32_t) + sizeof(std::uint32_t) ==
              FrameHeader::kWireSize);

/// One decoded frame: validated header plus raw payload bytes.
struct Frame {
  FrameHeader header;
  std::vector<std::byte> payload;

  Op op() const { return static_cast<Op>(header.op); }
};

/// Incremental frame decoder over a byte stream.  append() raw socket
/// reads, then call next() until it stops returning kFrame.  A kError
/// result poisons the stream (framing is lost); the connection must be
/// closed after sending the diagnostic.
class FrameBuffer {
 public:
  enum class Next { kFrame, kNeedMore, kError };

  void append(const std::byte* data, std::size_t n) {
    buffer_.insert(buffer_.end(), data, data + n);
  }
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Extracts the next complete frame.  On kError, `error` holds the
  /// typed diagnosis and `bad_header` the offending header (for the
  /// request_id to echo in the ERROR response, when recoverable).
  Next next(Frame& out, ErrorCode& error, FrameHeader* bad_header = nullptr);

 private:
  std::vector<std::byte> buffer_;
  std::size_t consumed_ = 0;
};

// --------------------------------------------------------------------------
// Request payloads.

/// QUERY addressing: by (level, index) or by packed board, 13 bytes
/// either way.  Board addressing lets a client that knows only the
/// position ask without carrying the indexing tables; the server ranks
/// the board and answers exactly as if (stones_on, rank) had been sent.
struct QueryRequest {
  enum class Mode : std::uint8_t { kLevelIndex = 0, kBoard = 1 };

  Mode mode = Mode::kLevelIndex;
  std::uint32_t level = 0;  // kLevelIndex only
  idx::Index index = 0;     // kLevelIndex only
  idx::Board board{};       // kBoard only

  static constexpr std::size_t kPayloadBytes = 1 + 4 + 8;
};
static_assert(idx::kPits == 12,
              "QUERY board payload is defined as 12 one-byte pits");

struct BatchQueryRequest {
  std::uint32_t level = 0;
  std::vector<idx::Index> indices;
};

/// Counters a STATS_REPLY carries, mirroring the server's view at reply
/// time: its own net-facing counters plus the QueryService block cache
/// underneath.  `level_sizes` doubles as the served directory, so
/// a remote client can sample or sweep without any other metadata op.
struct StatsReply {
  std::uint64_t connections = 0;   // connections accepted since start
  std::uint64_t requests = 0;      // request frames admitted
  std::uint64_t queries = 0;       // QUERY frames answered
  std::uint64_t batch_queries = 0; // BATCH_QUERY frames answered
  std::uint64_t pings = 0;         // PING frames answered
  std::uint64_t stats_ops = 0;     // STATS frames answered (incl. this)
  std::uint64_t errors = 0;        // ERROR responses sent
  std::uint64_t shed = 0;          // of which kBusy admission sheds
  std::uint64_t hot_hits = 0;      // lookups answered by the hot tier
  std::uint64_t lookups = 0;       // QueryService lookups (hot misses)
  std::uint64_t faults = 0;        // QueryService blocks faulted
  std::uint64_t evictions = 0;     // QueryService blocks evicted
  std::uint64_t resident_bytes = 0;   // QueryService resident payload
  std::vector<std::uint64_t> level_sizes;  // positions per served level

  /// The fixed counter block that precedes the level directory.
  static constexpr std::size_t kCounterCount = 13;
};

// --------------------------------------------------------------------------
// Frame encoders.  Each returns a complete frame (header + payload).

std::vector<std::byte> encode_ping(std::uint32_t request_id);
std::vector<std::byte> encode_query(std::uint32_t request_id,
                                    std::uint32_t level, idx::Index index);
std::vector<std::byte> encode_board_query(std::uint32_t request_id,
                                          const idx::Board& board);
std::vector<std::byte> encode_batch_query(std::uint32_t request_id,
                                          std::uint32_t level,
                                          std::span<const idx::Index> indices);
std::vector<std::byte> encode_stats(std::uint32_t request_id);

std::vector<std::byte> encode_pong(std::uint32_t request_id);
std::vector<std::byte> encode_value(std::uint32_t request_id, db::Value value);
std::vector<std::byte> encode_batch_values(std::uint32_t request_id,
                                           std::span<const db::Value> values);
std::vector<std::byte> encode_stats_reply(std::uint32_t request_id,
                                          const StatsReply& stats);
std::vector<std::byte> encode_error(std::uint32_t request_id, ErrorCode code);

// --------------------------------------------------------------------------
// Payload decoders.  All return kNone on success; any structural problem
// (short payload, trailing bytes, counts that disagree with the byte
// count) is kMalformed.

ErrorCode decode_query(std::span<const std::byte> payload, QueryRequest& out);
ErrorCode decode_batch_query(std::span<const std::byte> payload,
                             BatchQueryRequest& out);
ErrorCode decode_value(std::span<const std::byte> payload, db::Value& out);
ErrorCode decode_batch_values(std::span<const std::byte> payload,
                              std::vector<db::Value>& out);
ErrorCode decode_stats_reply(std::span<const std::byte> payload,
                             StatsReply& out);

}  // namespace retra::net
