#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "retra/msg/combiner.hpp"
#include "retra/msg/mailbox.hpp"
#include "retra/msg/round_world.hpp"
#include "retra/msg/thread_comm.hpp"
#include "retra/msg/wire.hpp"

namespace retra::msg {
namespace {

std::vector<std::byte> bytes_of(const char* text) {
  std::vector<std::byte> out(std::strlen(text));
  std::memcpy(out.data(), text, out.size());
  return out;
}

TEST(Mailbox, FifoOrder) {
  Mailbox box;
  box.push(Message{0, 1, bytes_of("a")});
  box.push(Message{0, 2, bytes_of("b")});
  Message m;
  ASSERT_TRUE(box.try_pop(m));
  EXPECT_EQ(m.tag, 1);
  ASSERT_TRUE(box.try_pop(m));
  EXPECT_EQ(m.tag, 2);
  EXPECT_FALSE(box.try_pop(m));
}

TEST(Mailbox, ConcurrentProducers) {
  Mailbox box;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.push(Message{p, 0, {}});
      }
    });
  }
  for (auto& t : producers) t.join();
  int received = 0;
  Message m;
  while (box.try_pop(m)) ++received;
  EXPECT_EQ(received, 4 * kPerProducer);
}

TEST(Wire, RoundTrip) {
  std::byte buffer[32];
  WireWriter w(buffer);
  w.u64(0x0123456789abcdefULL);
  w.i16(-1234);
  w.u8(7);
  EXPECT_EQ(w.written(), 11u);
  WireReader r(buffer);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i16(), -1234);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.consumed(), 11u);
}

TEST(ThreadWorld, PointToPoint) {
  ThreadWorld world(3);
  world.endpoint(0).send(2, 9, bytes_of("hello"));
  Message m;
  EXPECT_FALSE(world.endpoint(1).try_recv(m));
  ASSERT_TRUE(world.endpoint(2).try_recv(m));
  EXPECT_EQ(m.source, 0);
  EXPECT_EQ(m.tag, 9);
  EXPECT_EQ(m.payload.size(), 5u);
}

TEST(ThreadWorld, SelfSend) {
  ThreadWorld world(1);
  world.endpoint(0).send(0, 1, bytes_of("x"));
  Message m;
  ASSERT_TRUE(world.endpoint(0).try_recv(m));
  EXPECT_EQ(m.source, 0);
}

TEST(ThreadWorld, TransportStatsCount) {
  ThreadWorld world(2);
  world.endpoint(0).send(1, 1, bytes_of("abcd"));
  world.endpoint(0).send(1, 1, bytes_of("ef"));
  Message m;
  while (world.endpoint(1).try_recv(m)) {
  }
  EXPECT_EQ(world.endpoint(0).transport_stats().messages_sent, 2u);
  EXPECT_EQ(world.endpoint(0).transport_stats().bytes_sent, 6u);
  EXPECT_EQ(world.endpoint(1).transport_stats().messages_received, 2u);
  EXPECT_EQ(world.endpoint(1).transport_stats().bytes_received, 6u);
}

TEST(RoundWorld, DeliversThroughDriverOnly) {
  RoundWorld world(2);
  world.endpoint(0).send(1, 7, std::vector<std::byte>(3));
  Message m;
  // Not delivered until the driver closes the round.
  EXPECT_FALSE(world.endpoint(1).try_recv(m));
  std::vector<std::pair<int, int>> seen;  // (source, dest)
  world.deliver_round([&](const RoundWorld::Envelope& out) {
    seen.emplace_back(out.message.source, out.dest);
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(0, 1));
  ASSERT_TRUE(world.endpoint(1).try_recv(m));
  EXPECT_EQ(m.source, 0);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.payload.size(), 3u);
  EXPECT_FALSE(world.endpoint(1).try_recv(m));
}

TEST(RoundWorld, SentInRoundKIsFirstReceivedInRoundKPlusOne) {
  // Ranks step in turn as the sequential driver steps them: rank 1 steps
  // after rank 0 sent, yet sees nothing until the round has closed.
  RoundWorld world(2);
  Message m;
  for (int round = 0; round < 3; ++round) {
    world.endpoint(0).send(1, static_cast<std::uint8_t>(round),
                           bytes_of("r"));
    world.endpoint(0).send(0, static_cast<std::uint8_t>(round),
                           bytes_of("self"));
    if (round == 0) {
      EXPECT_FALSE(world.endpoint(1).try_recv(m));
      EXPECT_FALSE(world.endpoint(0).try_recv(m));
    } else {
      ASSERT_TRUE(world.endpoint(1).try_recv(m));
      EXPECT_EQ(m.tag, round - 1);
      EXPECT_FALSE(world.endpoint(1).try_recv(m));
      ASSERT_TRUE(world.endpoint(0).try_recv(m));
      EXPECT_EQ(m.tag, round - 1);
    }
    world.deliver_round();
  }
}

TEST(RoundWorld, DeliversInSourceThenSendOrder) {
  RoundWorld world(3);
  world.endpoint(2).send(0, 20, {});
  world.endpoint(1).send(0, 10, {});
  world.endpoint(2).send(0, 21, {});
  world.endpoint(0).send(0, 0, {});
  std::vector<int> tags;
  world.deliver_round([&](const RoundWorld::Envelope& out) {
    tags.push_back(out.message.tag);
  });
  EXPECT_EQ(tags, (std::vector<int>{0, 10, 20, 21}));
  Message m;
  for (const int tag : tags) {
    ASSERT_TRUE(world.endpoint(0).try_recv(m));
    EXPECT_EQ(m.tag, tag);
  }
  EXPECT_EQ(world.endpoint(2).transport_stats().messages_sent, 2u);
  EXPECT_EQ(world.endpoint(0).transport_stats().messages_received, 4u);
}

TEST(Combiner, CombinesUpToFlushSize) {
  ThreadWorld world(2);
  Combiner combiner(world.endpoint(0), 5, /*flush_bytes=*/8);
  const std::uint32_t record = 0xdeadbeef;
  combiner.append(1, &record, 4);  // fits
  combiner.append(1, &record, 4);  // fills exactly
  combiner.append(1, &record, 4);  // forces a flush of the first two
  Message m;
  ASSERT_TRUE(world.endpoint(1).try_recv(m));
  EXPECT_EQ(m.payload.size(), 8u);
  EXPECT_FALSE(world.endpoint(1).try_recv(m));
  combiner.flush_all();
  ASSERT_TRUE(world.endpoint(1).try_recv(m));
  EXPECT_EQ(m.payload.size(), 4u);
  EXPECT_EQ(combiner.stats().records, 3u);
  EXPECT_EQ(combiner.stats().messages, 2u);
  EXPECT_EQ(combiner.stats().payload_bytes, 12u);
}

TEST(Combiner, FlushBytesOneDisablesCombining) {
  ThreadWorld world(2);
  Combiner combiner(world.endpoint(0), 5, /*flush_bytes=*/1);
  const std::uint64_t record = 42;
  combiner.append(1, &record, 8);
  combiner.append(1, &record, 8);
  combiner.flush_all();
  Message m;
  int messages = 0;
  while (world.endpoint(1).try_recv(m)) {
    EXPECT_EQ(m.payload.size(), 8u);
    ++messages;
  }
  EXPECT_EQ(messages, 2);
}

TEST(Combiner, SeparateDestinationsSeparateBuffers) {
  ThreadWorld world(3);
  Combiner combiner(world.endpoint(0), 5, 1024);
  const std::uint32_t record = 1;
  combiner.append(1, &record, 4);
  combiner.append(2, &record, 4);
  combiner.flush_all();
  Message m;
  ASSERT_TRUE(world.endpoint(1).try_recv(m));
  EXPECT_EQ(m.payload.size(), 4u);
  ASSERT_TRUE(world.endpoint(2).try_recv(m));
  EXPECT_EQ(m.payload.size(), 4u);
}

TEST(Combiner, PreservesRecordOrderPerDestination) {
  ThreadWorld world(2);
  Combiner combiner(world.endpoint(0), 5, 8);
  for (std::uint32_t i = 0; i < 10; ++i) combiner.append(1, &i, 4);
  combiner.flush_all();
  Message m;
  std::uint32_t expected = 0;
  while (world.endpoint(1).try_recv(m)) {
    for (std::size_t off = 0; off < m.payload.size(); off += 4) {
      std::uint32_t value;
      std::memcpy(&value, m.payload.data() + off, 4);
      EXPECT_EQ(value, expected++);
    }
  }
  EXPECT_EQ(expected, 10u);
}

TEST(WorkMeter, ChargesAndMerges) {
  WorkMeter a, b;
  a.charge(WorkKind::kAssign, 3);
  b.charge(WorkKind::kAssign);
  b.charge(WorkKind::kPredEdge, 7);
  a += b;
  EXPECT_EQ(a.count(WorkKind::kAssign), 4u);
  EXPECT_EQ(a.count(WorkKind::kPredEdge), 7u);
  a.clear();
  EXPECT_EQ(a.count(WorkKind::kAssign), 0u);
}

}  // namespace
}  // namespace retra::msg
