#include "retra/net/protocol.hpp"

#include <cstring>

namespace retra::net {

namespace {

/// Allocates a frame with `payload_bytes` of payload and writes the
/// header; returns a writer positioned at the payload.
std::vector<std::byte> make_frame(Op op, std::uint32_t request_id,
                                  ErrorCode code,
                                  std::size_t payload_bytes) {
  std::vector<std::byte> frame(FrameHeader::kWireSize + payload_bytes);
  FrameHeader header;
  header.op = static_cast<std::uint8_t>(op);
  header.code = static_cast<std::uint16_t>(code);
  header.request_id = request_id;
  header.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
  header.encode(frame.data());
  return frame;
}

msg::WireWriter payload_writer(std::vector<std::byte>& frame) {
  return msg::WireWriter(frame.data() + FrameHeader::kWireSize);
}

}  // namespace

std::string_view error_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kBadMagic:
      return "bad-magic";
    case ErrorCode::kBadVersion:
      return "bad-version";
    case ErrorCode::kBadOp:
      return "bad-op";
    case ErrorCode::kBadLevel:
      return "bad-level";
    case ErrorCode::kBadIndex:
      return "bad-index";
    case ErrorCode::kBadBoard:
      return "bad-board";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kOversizedFrame:
      return "oversized-frame";
  }
  return "?";
}

FrameBuffer::Next FrameBuffer::next(Frame& out, ErrorCode& error,
                                    FrameHeader* bad_header) {
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection never grows the buffer without bound.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  if (buffered() < FrameHeader::kWireSize) return Next::kNeedMore;

  msg::WireReader reader(buffer_.data() + consumed_);
  const FrameHeader header = FrameHeader::decode(reader);
  if (bad_header) *bad_header = header;
  if (header.magic != kMagic) {
    error = ErrorCode::kBadMagic;
    return Next::kError;
  }
  if (header.version != kVersion) {
    error = ErrorCode::kBadVersion;
    return Next::kError;
  }
  if (!is_request(static_cast<Op>(header.op)) &&
      !is_response(static_cast<Op>(header.op))) {
    error = ErrorCode::kBadOp;
    return Next::kError;
  }
  if (header.payload_bytes > kMaxPayloadBytes) {
    error = ErrorCode::kOversizedFrame;
    return Next::kError;
  }
  if (buffered() < FrameHeader::kWireSize + header.payload_bytes) {
    return Next::kNeedMore;
  }

  out.header = header;
  const std::byte* payload =
      buffer_.data() + consumed_ + FrameHeader::kWireSize;
  out.payload.assign(payload, payload + header.payload_bytes);
  consumed_ += FrameHeader::kWireSize + header.payload_bytes;
  return Next::kFrame;
}

std::vector<std::byte> encode_ping(std::uint32_t request_id) {
  return make_frame(Op::kPing, request_id, ErrorCode::kNone, 0);
}

std::vector<std::byte> encode_query(std::uint32_t request_id,
                                    std::uint32_t level, idx::Index index) {
  auto frame = make_frame(Op::kQuery, request_id, ErrorCode::kNone,
                          QueryRequest::kPayloadBytes);
  msg::WireWriter w = payload_writer(frame);
  w.u8(static_cast<std::uint8_t>(QueryRequest::Mode::kLevelIndex));
  w.u32(level);
  w.u64(index);
  return frame;
}

std::vector<std::byte> encode_board_query(std::uint32_t request_id,
                                          const idx::Board& board) {
  auto frame = make_frame(Op::kQuery, request_id, ErrorCode::kNone,
                          QueryRequest::kPayloadBytes);
  msg::WireWriter w = payload_writer(frame);
  w.u8(static_cast<std::uint8_t>(QueryRequest::Mode::kBoard));
  for (const std::uint8_t pit : board) w.u8(pit);
  return frame;
}

std::vector<std::byte> encode_batch_query(
    std::uint32_t request_id, std::uint32_t level,
    std::span<const idx::Index> indices) {
  auto frame =
      make_frame(Op::kBatchQuery, request_id, ErrorCode::kNone,
                 4 + 4 + indices.size() * 8);
  msg::WireWriter w = payload_writer(frame);
  w.u32(level);
  w.u32(static_cast<std::uint32_t>(indices.size()));
  for (const idx::Index index : indices) w.u64(index);
  return frame;
}

std::vector<std::byte> encode_stats(std::uint32_t request_id) {
  return make_frame(Op::kStats, request_id, ErrorCode::kNone, 0);
}

std::vector<std::byte> encode_pong(std::uint32_t request_id) {
  return make_frame(Op::kPong, request_id, ErrorCode::kNone, 0);
}

std::vector<std::byte> encode_value(std::uint32_t request_id,
                                    db::Value value) {
  auto frame = make_frame(Op::kValue, request_id, ErrorCode::kNone, 2);
  msg::WireWriter w = payload_writer(frame);
  w.i16(value);
  return frame;
}

std::vector<std::byte> encode_batch_values(
    std::uint32_t request_id, std::span<const db::Value> values) {
  auto frame = make_frame(Op::kBatchValues, request_id, ErrorCode::kNone,
                          4 + values.size() * 2);
  msg::WireWriter w = payload_writer(frame);
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (const db::Value value : values) w.i16(value);
  return frame;
}

std::vector<std::byte> encode_stats_reply(std::uint32_t request_id,
                                          const StatsReply& stats) {
  auto frame = make_frame(
      Op::kStatsReply, request_id, ErrorCode::kNone,
      StatsReply::kCounterCount * 8 + 4 + stats.level_sizes.size() * 8);
  msg::WireWriter w = payload_writer(frame);
  w.u64(stats.connections);
  w.u64(stats.requests);
  w.u64(stats.queries);
  w.u64(stats.batch_queries);
  w.u64(stats.pings);
  w.u64(stats.stats_ops);
  w.u64(stats.errors);
  w.u64(stats.shed);
  w.u64(stats.hot_hits);
  w.u64(stats.lookups);
  w.u64(stats.faults);
  w.u64(stats.evictions);
  w.u64(stats.resident_bytes);
  w.u32(static_cast<std::uint32_t>(stats.level_sizes.size()));
  for (const std::uint64_t size : stats.level_sizes) w.u64(size);
  return frame;
}

std::vector<std::byte> encode_error(std::uint32_t request_id,
                                    ErrorCode code) {
  return make_frame(Op::kError, request_id, code, 0);
}

ErrorCode decode_query(std::span<const std::byte> payload,
                       QueryRequest& out) {
  if (payload.size() != QueryRequest::kPayloadBytes) {
    return ErrorCode::kMalformed;
  }
  msg::WireReader r(payload.data());
  const std::uint8_t mode = r.u8();
  if (mode == static_cast<std::uint8_t>(QueryRequest::Mode::kLevelIndex)) {
    out.mode = QueryRequest::Mode::kLevelIndex;
    out.level = r.u32();
    out.index = r.u64();
    return ErrorCode::kNone;
  }
  if (mode == static_cast<std::uint8_t>(QueryRequest::Mode::kBoard)) {
    out.mode = QueryRequest::Mode::kBoard;
    for (std::uint8_t& pit : out.board) pit = r.u8();
    return ErrorCode::kNone;
  }
  return ErrorCode::kMalformed;
}

ErrorCode decode_batch_query(std::span<const std::byte> payload,
                             BatchQueryRequest& out) {
  if (payload.size() < 8) return ErrorCode::kMalformed;
  msg::WireReader r(payload.data());
  out.level = r.u32();
  const std::uint32_t count = r.u32();
  if (count > kMaxBatchLookups) return ErrorCode::kMalformed;
  if (payload.size() != 8 + static_cast<std::size_t>(count) * 8) {
    return ErrorCode::kMalformed;
  }
  out.indices.resize(count);
  for (idx::Index& index : out.indices) index = r.u64();
  return ErrorCode::kNone;
}

ErrorCode decode_value(std::span<const std::byte> payload, db::Value& out) {
  if (payload.size() != 2) return ErrorCode::kMalformed;
  msg::WireReader r(payload.data());
  out = r.i16();
  return ErrorCode::kNone;
}

ErrorCode decode_batch_values(std::span<const std::byte> payload,
                              std::vector<db::Value>& out) {
  if (payload.size() < 4) return ErrorCode::kMalformed;
  msg::WireReader r(payload.data());
  const std::uint32_t count = r.u32();
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 2) {
    return ErrorCode::kMalformed;
  }
  out.resize(count);
  for (db::Value& value : out) value = r.i16();
  return ErrorCode::kNone;
}

ErrorCode decode_stats_reply(std::span<const std::byte> payload,
                             StatsReply& out) {
  constexpr std::size_t kFixed = StatsReply::kCounterCount * 8 + 4;
  if (payload.size() < kFixed) return ErrorCode::kMalformed;
  msg::WireReader r(payload.data());
  out.connections = r.u64();
  out.requests = r.u64();
  out.queries = r.u64();
  out.batch_queries = r.u64();
  out.pings = r.u64();
  out.stats_ops = r.u64();
  out.errors = r.u64();
  out.shed = r.u64();
  out.hot_hits = r.u64();
  out.lookups = r.u64();
  out.faults = r.u64();
  out.evictions = r.u64();
  out.resident_bytes = r.u64();
  const std::uint32_t levels = r.u32();
  if (payload.size() != kFixed + static_cast<std::size_t>(levels) * 8) {
    return ErrorCode::kMalformed;
  }
  out.level_sizes.resize(levels);
  for (std::uint64_t& size : out.level_sizes) size = r.u64();
  return ErrorCode::kNone;
}

}  // namespace retra::net
