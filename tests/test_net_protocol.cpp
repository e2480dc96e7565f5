// The retra-net-v1 codec: wire layout, round trips, and the
// malformed-frame fuzz loop.
//
// The codec is pure (no sockets), so these tests pin the byte format
// down exactly — header field offsets, little-endian order, payload
// shapes — and then hammer FrameBuffer and the payload decoders with
// arbitrary and mutated bytes: every outcome must be a typed ErrorCode,
// never a crash, a hang, or an unbounded allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "retra/net/protocol.hpp"
#include "retra/support/rng.hpp"

namespace retra::net {
namespace {

// ---- wire-layout lint: the constants below ARE the protocol; changing
// any of them is a wire break and must be deliberate.
static_assert(FrameHeader::kWireSize == 16);
static_assert(kMagic == 0x314E5452u);  // "RTN1" little-endian
static_assert(kVersion == 1);
static_assert(kMaxPayloadBytes == (1u << 20));
static_assert(kMaxBatchLookups == (1u << 16));
static_assert(QueryRequest::kPayloadBytes == 13);
static_assert(StatsReply::kCounterCount == 13);
static_assert(static_cast<int>(Op::kPing) == 1);
static_assert(static_cast<int>(Op::kQuery) == 2);
static_assert(static_cast<int>(Op::kBatchQuery) == 3);
static_assert(static_cast<int>(Op::kStats) == 4);
static_assert(static_cast<int>(Op::kPong) == 65);
static_assert(static_cast<int>(Op::kValue) == 66);
static_assert(static_cast<int>(Op::kBatchValues) == 67);
static_assert(static_cast<int>(Op::kStatsReply) == 68);
static_assert(static_cast<int>(Op::kError) == 69);
static_assert(static_cast<int>(ErrorCode::kBusy) == 8);
static_assert(static_cast<int>(ErrorCode::kOversizedFrame) == 9);
static_assert(is_request(Op::kQuery) && !is_response(Op::kQuery));
static_assert(is_response(Op::kError) && !is_request(Op::kError));

/// Runs one complete frame through a FrameBuffer and returns it.
Frame decode_one(const std::vector<std::byte>& bytes) {
  FrameBuffer buffer;
  buffer.append(bytes.data(), bytes.size());
  Frame frame;
  ErrorCode error = ErrorCode::kNone;
  EXPECT_EQ(buffer.next(frame, error), FrameBuffer::Next::kFrame)
      << error_name(error);
  EXPECT_EQ(buffer.buffered(), 0u);
  return frame;
}

TEST(NetProtocol, HeaderBytesAreLittleEndianAtFixedOffsets) {
  FrameHeader header;
  header.op = static_cast<std::uint8_t>(Op::kError);
  header.code = static_cast<std::uint16_t>(ErrorCode::kBusy);
  header.request_id = 0x04030201u;
  header.payload_bytes = 0x0A0B0C0Du;
  std::byte bytes[FrameHeader::kWireSize];
  header.encode(bytes);
  const unsigned char expected[16] = {
      0x52, 0x54, 0x4E, 0x31,  // "RTN1"
      1,                       // version
      69,                      // op = ERROR
      8,    0,                 // code = BUSY, little-endian u16
      0x01, 0x02, 0x03, 0x04,  // request_id
      0x0D, 0x0C, 0x0B, 0x0A,  // payload_bytes
  };
  EXPECT_EQ(std::memcmp(bytes, expected, sizeof expected), 0);

  msg::WireReader reader(bytes);
  const FrameHeader back = FrameHeader::decode(reader);
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.version, kVersion);
  EXPECT_EQ(back.op, header.op);
  EXPECT_EQ(back.code, header.code);
  EXPECT_EQ(back.request_id, header.request_id);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);
}

TEST(NetProtocol, PingAndPongRoundTrip) {
  const Frame ping = decode_one(encode_ping(7));
  EXPECT_EQ(ping.op(), Op::kPing);
  EXPECT_EQ(ping.header.request_id, 7u);
  EXPECT_TRUE(ping.payload.empty());
  const Frame pong = decode_one(encode_pong(7));
  EXPECT_EQ(pong.op(), Op::kPong);
  EXPECT_TRUE(pong.payload.empty());
}

TEST(NetProtocol, QueryRoundTripsBothAddressingModes) {
  const Frame by_index = decode_one(encode_query(3, 5, 123456789ull));
  ASSERT_EQ(by_index.op(), Op::kQuery);
  ASSERT_EQ(by_index.payload.size(), QueryRequest::kPayloadBytes);
  QueryRequest query;
  ASSERT_EQ(decode_query(by_index.payload, query), ErrorCode::kNone);
  EXPECT_EQ(query.mode, QueryRequest::Mode::kLevelIndex);
  EXPECT_EQ(query.level, 5u);
  EXPECT_EQ(query.index, 123456789ull);

  const idx::Board board{1, 2, 0, 0, 1, 0, 0, 1, 0, 2, 0, 1};
  const Frame by_board = decode_one(encode_board_query(4, board));
  ASSERT_EQ(by_board.payload.size(), QueryRequest::kPayloadBytes);
  ASSERT_EQ(decode_query(by_board.payload, query), ErrorCode::kNone);
  EXPECT_EQ(query.mode, QueryRequest::Mode::kBoard);
  EXPECT_EQ(query.board, board);
}

TEST(NetProtocol, BatchQueryAndValuesRoundTrip) {
  const std::vector<idx::Index> indices = {0, 7, 42, 1u << 20};
  const Frame request = decode_one(encode_batch_query(9, 4, indices));
  ASSERT_EQ(request.op(), Op::kBatchQuery);
  BatchQueryRequest batch;
  ASSERT_EQ(decode_batch_query(request.payload, batch), ErrorCode::kNone);
  EXPECT_EQ(batch.level, 4u);
  EXPECT_EQ(batch.indices, indices);

  const std::vector<db::Value> values = {-6, 0, 6, 2};
  const Frame response = decode_one(encode_batch_values(9, values));
  ASSERT_EQ(response.op(), Op::kBatchValues);
  std::vector<db::Value> back;
  ASSERT_EQ(decode_batch_values(response.payload, back), ErrorCode::kNone);
  EXPECT_EQ(back, values);

  db::Value one = 0;
  const Frame single = decode_one(encode_value(2, -5));
  ASSERT_EQ(decode_value(single.payload, one), ErrorCode::kNone);
  EXPECT_EQ(one, -5);
}

TEST(NetProtocol, StatsReplyRoundTripsEveryField) {
  StatsReply stats;
  stats.connections = 1;
  stats.requests = 2;
  stats.queries = 3;
  stats.batch_queries = 4;
  stats.pings = 5;
  stats.stats_ops = 6;
  stats.errors = 7;
  stats.shed = 8;
  stats.hot_hits = 9;
  stats.lookups = 10;
  stats.faults = 11;
  stats.evictions = 12;
  stats.resident_bytes = 13;
  stats.level_sizes = {1, 12, 78, 364};
  const Frame frame = decode_one(encode_stats_reply(21, stats));
  ASSERT_EQ(frame.op(), Op::kStatsReply);
  StatsReply back;
  ASSERT_EQ(decode_stats_reply(frame.payload, back), ErrorCode::kNone);
  EXPECT_EQ(back.connections, 1u);
  EXPECT_EQ(back.requests, 2u);
  EXPECT_EQ(back.queries, 3u);
  EXPECT_EQ(back.batch_queries, 4u);
  EXPECT_EQ(back.pings, 5u);
  EXPECT_EQ(back.stats_ops, 6u);
  EXPECT_EQ(back.errors, 7u);
  EXPECT_EQ(back.shed, 8u);
  EXPECT_EQ(back.hot_hits, 9u);
  EXPECT_EQ(back.lookups, 10u);
  EXPECT_EQ(back.faults, 11u);
  EXPECT_EQ(back.evictions, 12u);
  EXPECT_EQ(back.resident_bytes, 13u);
  EXPECT_EQ(back.level_sizes, stats.level_sizes);
}

TEST(NetProtocol, ErrorFrameCarriesTypedCode) {
  const Frame frame = decode_one(encode_error(33, ErrorCode::kBadIndex));
  EXPECT_EQ(frame.op(), Op::kError);
  EXPECT_EQ(static_cast<ErrorCode>(frame.header.code),
            ErrorCode::kBadIndex);
  EXPECT_EQ(frame.header.request_id, 33u);
}

TEST(NetProtocol, FrameBufferReassemblesByteByByte) {
  std::vector<std::byte> stream;
  const auto a = encode_query(1, 2, 3);
  const auto b = encode_ping(2);
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());

  FrameBuffer buffer;
  std::vector<Op> seen;
  for (const std::byte byte : stream) {
    buffer.append(&byte, 1);
    Frame frame;
    ErrorCode error = ErrorCode::kNone;
    while (buffer.next(frame, error) == FrameBuffer::Next::kFrame) {
      seen.push_back(frame.op());
    }
    EXPECT_EQ(error, ErrorCode::kNone);
  }
  EXPECT_EQ(seen, (std::vector<Op>{Op::kQuery, Op::kPing}));
}

TEST(NetProtocol, FrameBufferDiagnosesEachHeaderDefect) {
  const auto diagnose = [](auto mutate) {
    auto bytes = encode_ping(5);
    mutate(bytes);
    FrameBuffer buffer;
    buffer.append(bytes.data(), bytes.size());
    Frame frame;
    ErrorCode error = ErrorCode::kNone;
    FrameHeader bad;
    EXPECT_EQ(buffer.next(frame, error, &bad), FrameBuffer::Next::kError);
    return error;
  };
  EXPECT_EQ(diagnose([](auto& b) { b[0] = std::byte{0}; }),
            ErrorCode::kBadMagic);
  EXPECT_EQ(diagnose([](auto& b) { b[4] = std::byte{9}; }),
            ErrorCode::kBadVersion);
  EXPECT_EQ(diagnose([](auto& b) { b[5] = std::byte{200}; }),
            ErrorCode::kBadOp);
  // Announce a payload beyond the hard ceiling.
  EXPECT_EQ(diagnose([](auto& b) { b[15] = std::byte{0xFF}; }),
            ErrorCode::kOversizedFrame);
}

TEST(NetProtocol, BadHeaderStillYieldsTheRequestIdToEcho) {
  auto bytes = encode_ping(77);
  bytes[5] = std::byte{123};  // unknown op
  FrameBuffer buffer;
  buffer.append(bytes.data(), bytes.size());
  Frame frame;
  ErrorCode error = ErrorCode::kNone;
  FrameHeader bad;
  ASSERT_EQ(buffer.next(frame, error, &bad), FrameBuffer::Next::kError);
  EXPECT_EQ(error, ErrorCode::kBadOp);
  EXPECT_EQ(bad.request_id, 77u);
}

TEST(NetProtocol, DecodersRejectTruncatedAndPaddedPayloads) {
  QueryRequest query;
  BatchQueryRequest batch;
  std::vector<db::Value> values;
  StatsReply stats;
  const auto full = decode_one(encode_query(1, 2, 3)).payload;
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_EQ(decode_query(std::span(full).first(n), query),
              ErrorCode::kMalformed);
  }
  auto padded = full;
  padded.push_back(std::byte{0});
  EXPECT_EQ(decode_query(padded, query), ErrorCode::kMalformed);

  // A batch whose count disagrees with the byte count.
  const std::vector<idx::Index> three = {1, 2, 3};
  auto bad_batch = decode_one(encode_batch_query(1, 2, three)).payload;
  bad_batch.pop_back();
  EXPECT_EQ(decode_batch_query(bad_batch, batch), ErrorCode::kMalformed);

  EXPECT_EQ(decode_value({}, values.emplace_back()), ErrorCode::kMalformed);
  EXPECT_EQ(decode_stats_reply({}, stats), ErrorCode::kMalformed);
}

// ---- the fuzz loop: arbitrary bytes, mutated frames, split deliveries.
// Nothing here asserts specific outcomes beyond "typed error or valid
// frame, bounded buffering, no crash".

/// Drains `buffer` completely, counting frames; stops on error or need-more.
void drain(FrameBuffer& buffer, std::size_t& frames, bool& poisoned) {
  Frame frame;
  ErrorCode error = ErrorCode::kNone;
  for (;;) {
    switch (buffer.next(frame, error)) {
      case FrameBuffer::Next::kFrame:
        ++frames;
        EXPECT_LE(frame.payload.size(), kMaxPayloadBytes);
        continue;
      case FrameBuffer::Next::kNeedMore:
        return;
      case FrameBuffer::Next::kError:
        EXPECT_NE(error, ErrorCode::kNone);
        poisoned = true;
        return;
    }
  }
}

TEST(NetProtocolFuzz, RandomBytesNeverCrashTheFrameBuffer) {
  support::Xoshiro256 rng(0xF00D);
  for (int round = 0; round < 200; ++round) {
    FrameBuffer buffer;
    bool poisoned = false;
    std::size_t frames = 0;
    while (!poisoned) {
      std::byte chunk[64];
      const std::size_t n = 1 + rng.below(sizeof chunk);
      for (std::size_t i = 0; i < n; ++i) {
        chunk[i] = static_cast<std::byte>(rng.below(256));
      }
      buffer.append(chunk, n);
      drain(buffer, frames, poisoned);
      if (buffer.buffered() > 4 * kMaxPayloadBytes) break;  // unreachable
    }
    // Random 16-byte headers almost never spell RTN1; the stream must
    // poison quickly instead of buffering forever.
    EXPECT_TRUE(poisoned);
    EXPECT_LT(buffer.buffered(), 2 * kMaxPayloadBytes);
  }
}

TEST(NetProtocolFuzz, MutatedValidFramesYieldTypedErrorsOrFrames) {
  support::Xoshiro256 rng(0xBEEF);
  const std::vector<idx::Index> indices = {1, 2, 3, 4, 5};
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> bytes;
    switch (rng.below(4)) {
      case 0: bytes = encode_ping(static_cast<std::uint32_t>(rng())); break;
      case 1: bytes = encode_query(1, 2, rng()); break;
      case 2: bytes = encode_batch_query(2, 3, indices); break;
      default: bytes = encode_stats(4); break;
    }
    // Flip a handful of random bytes, sometimes truncate.
    for (int flips = 0; flips < 3; ++flips) {
      bytes[rng.below(bytes.size())] = static_cast<std::byte>(rng.below(256));
    }
    if (rng.below(4) == 0) bytes.resize(rng.below(bytes.size() + 1));

    FrameBuffer buffer;
    buffer.append(bytes.data(), bytes.size());
    bool poisoned = false;
    std::size_t frames = 0;
    drain(buffer, frames, poisoned);

    // Whatever survived framing must also decode without crashing.
    Frame frame;
    ErrorCode error = ErrorCode::kNone;
    FrameBuffer replay;
    replay.append(bytes.data(), bytes.size());
    if (replay.next(frame, error) == FrameBuffer::Next::kFrame) {
      QueryRequest query;
      BatchQueryRequest batch;
      StatsReply stats;
      std::vector<db::Value> values;
      db::Value value = 0;
      (void)decode_query(frame.payload, query);
      (void)decode_batch_query(frame.payload, batch);
      (void)decode_value(frame.payload, value);
      (void)decode_batch_values(frame.payload, values);
      (void)decode_stats_reply(frame.payload, stats);
    }
  }
}

TEST(NetProtocolFuzz, BatchDecoderBoundsItsAllocation) {
  // A batch header announcing the maximum count with no bytes behind it
  // must fail by arithmetic, not by allocating the announced amount.
  std::vector<std::byte> payload(8);
  msg::WireWriter w(payload.data());
  w.u32(3);                  // level
  w.u32(kMaxBatchLookups);   // count, but zero index bytes follow
  BatchQueryRequest batch;
  EXPECT_EQ(decode_batch_query(payload, batch), ErrorCode::kMalformed);
  EXPECT_TRUE(batch.indices.empty());
}

}  // namespace
}  // namespace retra::net
