// Loopback integration tests for the retra-net-v1 server.
//
// A real Server on an ephemeral port serves an RTRADB03 fixture;
// real Clients dial 127.0.0.1 and must observe byte-for-byte the values
// a direct QueryService returns — through single queries, batches,
// pipelining, and board addressing, with a budget squeezed small enough
// that serving faults and evicts continuously.  The STATS op, the
// Server::Stats mirror, and the net.* obs metrics are reconciled
// against each other and against the number of positions actually
// asked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "legacy_fixtures.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/net/client.hpp"
#include "retra/net/server.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/ra/builder.hpp"
#include "retra/support/rng.hpp"

namespace retra::net {
namespace {

constexpr int kMaxLevel = 6;

/// The solved awari database shared by every test; built once.
const db::Database& solved() {
  static const db::Database database =
      ra::build_database(game::AwariFamily{}, kMaxLevel);
  return database;
}

/// Owns a fixture file for the lifetime of the process and removes it at
/// exit.  The PID is baked into the name: ctest runs each test case as its
/// own process, and a shared fixed path lets one process truncate the file
/// mid-rewrite while a sibling is reading it.
struct ScratchDb {
  ScratchDb(const char* stem, std::uint32_t block_positions) {
    path = (std::filesystem::temp_directory_path() /
            (std::string(stem) + "." + std::to_string(::getpid()) + ".db"))
               .string();
    db::save(solved(), path, db::Format{.block_positions = block_positions});
  }
  ~ScratchDb() { std::remove(path.c_str()); }
  std::string path;
};

/// Saves solved() to a per-process scratch file with one block per level
/// (kMaxBlockPositions exceeds every level), so the server caches whole
/// levels; built once.
const std::string& fixture_path() {
  static const ScratchDb fixture("retra_test_net_server",
                                 db::kMaxBlockPositions);
  return fixture.path;
}

/// Saves solved() at the default block geometry; built once.
const std::string& compressed_fixture_path() {
  static const ScratchDb fixture("retra_test_net_server_c",
                                 db::kDefaultBlockPositions);
  return fixture.path;
}

Server::OpenResult open_server(const ServerConfig& config = {}) {
  auto opened = Server::open(fixture_path(), config);
  EXPECT_TRUE(opened.ok) << opened.error;
  return opened;
}

std::unique_ptr<Client> dial(const Server& server) {
  auto connected = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(connected.ok) << connected.error;
  return std::move(connected.client);
}

/// Every value of `level` (`size` positions), fetched in protocol-sized
/// batches.
std::vector<db::Value> fetch_level(Client& client, int level,
                                   std::uint64_t size) {
  std::vector<idx::Index> indices(size);
  std::iota(indices.begin(), indices.end(), idx::Index{0});
  std::vector<db::Value> remote;
  for (std::size_t begin = 0; begin < indices.size();
       begin += kMaxBatchLookups) {
    const std::size_t count =
        std::min<std::size_t>(kMaxBatchLookups, indices.size() - begin);
    std::vector<db::Value> chunk;
    const auto status = client.batch_query(
        static_cast<std::uint32_t>(level),
        std::span(indices).subspan(begin, count), chunk);
    EXPECT_TRUE(status.ok())
        << status.transport << " " << error_name(status.code);
    remote.insert(remote.end(), chunk.begin(), chunk.end());
  }
  return remote;
}

TEST(NetServer, EphemeralPortsAreDistinctAndReported) {
  auto a = open_server();
  auto b = open_server();
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_NE(a.server->port(), 0);
  EXPECT_NE(b.server->port(), 0);
  EXPECT_NE(a.server->port(), b.server->port());
}

TEST(NetServer, PingRoundTrips) {
  auto opened = open_server();
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  EXPECT_TRUE(client->ping().ok());
}

TEST(NetServer, FullDatabaseAgreementViaBatches) {
  // The anchor test: every value of every level, byte-for-byte, through
  // a server whose budget forces continuous fault/evict underneath.
  ServerConfig config;
  config.budget_bytes = 2048;  // fits one mid-size level
  config.hot_bytes = 1024;     // hot tier squeezed too
  auto opened = open_server(config);
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  for (int level = 0; level <= kMaxLevel; ++level) {
    EXPECT_EQ(fetch_level(*client, level, solved().level(level).size()),
              solved().level(level))
        << "level " << level;
  }
}

TEST(NetServer, LegacyFixturesServeTheBuiltValues) {
  // RTRADB01/02 files written before RTRADB03 became the one written
  // format still serve over the wire, each level one implicit block, and
  // so does an RTRADB03 file written before the level header joined the
  // directory checksum.
  const db::Database built = ra::build_database(game::AwariFamily{}, 3);
  ServerConfig config;
  config.budget_bytes = 128;  // smaller than level 3: fault + evict
  for (const char* fixture :
       {"awari3.rtradb01", "awari3.rtradb02", "awari3.rtradb03"}) {
    auto opened = Server::open(test::fixture_path(fixture), config);
    ASSERT_TRUE(opened.ok) << fixture << ": " << opened.error;
    auto client = dial(*opened.server);
    ASSERT_TRUE(client);
    for (int level = 0; level < built.num_levels(); ++level) {
      EXPECT_EQ(fetch_level(*client, level, built.level(level).size()),
                built.level(level))
          << fixture << " level " << level;
    }
  }
}

TEST(NetServer, CompressedDatabaseAgreementViaBatches) {
  // The fifth backend reached over the wire: an RTRADB03 file served
  // with the block cache squeezed to a sliver (every cold batch faults
  // and decodes blocks) under a hot tier sized for the whole decoded
  // database (~9.3 KB at 6 stones).  Two full sweeps must both match
  // the solver byte for byte, and the second must be answered entirely
  // from promoted block copies.
  ServerConfig config;
  config.budget_bytes = 2048;
  config.hot_bytes = 16384;
  auto opened = Server::open(compressed_fixture_path(), config);
  ASSERT_TRUE(opened.ok) << opened.error;
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  std::uint64_t asked = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int level = 0; level <= kMaxLevel; ++level) {
      const std::uint64_t size = solved().level(level).size();
      EXPECT_EQ(fetch_level(*client, level, size), solved().level(level))
          << "sweep " << sweep << " level " << level;
      asked += size;
    }
  }
  // Accounting holds at block granularity too: every position asked was
  // answered by the hot tier or the shared service, and the second
  // sweep never touched the service at all.
  StatsReply stats;
  ASSERT_TRUE(client->stats(stats).ok());
  EXPECT_EQ(stats.hot_hits + stats.lookups, asked);
  EXPECT_EQ(stats.hot_hits, asked / 2);
  // STATS reports the block cache the first sweep faulted through.
  EXPECT_GT(stats.faults, 0u);
}

TEST(NetServer, ClientValueSourceAgreesWithDirectService) {
  auto opened = open_server();
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  auto adapted = ClientValueSource::open(*client);
  ASSERT_TRUE(adapted.ok) << adapted.error;
  serve::ValueSource& remote = *adapted.source;

  auto direct_opened = serve::QueryService::open(fixture_path());
  ASSERT_TRUE(direct_opened.ok) << direct_opened.error;
  serve::QueryService& direct = *direct_opened.service;

  ASSERT_EQ(remote.num_levels(), direct.num_levels());
  for (int level = 0; level <= kMaxLevel; ++level) {
    ASSERT_EQ(remote.level_size(level), direct.level_size(level));
    EXPECT_EQ(remote.level_values(level), direct.level_values(level))
        << "level " << level;
  }
}

TEST(NetServer, BatchedAndSingleAndPipelinedAgree) {
  auto opened = open_server();
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  support::Xoshiro256 rng(11);
  for (int level = 1; level <= kMaxLevel; ++level) {
    std::vector<idx::Index> indices(64);
    for (auto& index : indices) {
      index = rng.below(solved().level(level).size());
    }
    std::vector<db::Value> batched;
    ASSERT_TRUE(client
                    ->batch_query(static_cast<std::uint32_t>(level),
                                  indices, batched)
                    .ok());
    std::vector<db::Value> piped(indices.size());
    ASSERT_TRUE(client
                    ->pipelined_queries(static_cast<std::uint32_t>(level),
                                        indices, piped)
                    .ok());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      db::Value single = 0;
      ASSERT_TRUE(client
                      ->query(static_cast<std::uint32_t>(level),
                              indices[i], single)
                      .ok());
      const db::Value expected = solved().value(level, indices[i]);
      EXPECT_EQ(single, expected);
      EXPECT_EQ(batched[i], expected);
      EXPECT_EQ(piped[i], expected);
    }
  }
}

TEST(NetServer, BoardAddressingMatchesLevelIndex) {
  auto opened = open_server();
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  support::Xoshiro256 rng(13);
  for (int level = 1; level <= kMaxLevel; ++level) {
    for (int s = 0; s < 16; ++s) {
      const idx::Index index = rng.below(solved().level(level).size());
      const idx::Board board = idx::unrank(level, index);
      db::Value by_board = 0;
      db::Value by_index = 0;
      ASSERT_TRUE(client->query_board(board, by_board).ok());
      ASSERT_TRUE(client
                      ->query(static_cast<std::uint32_t>(level), index,
                              by_index)
                      .ok());
      EXPECT_EQ(by_board, by_index);
      EXPECT_EQ(by_board, solved().value(level, index));
    }
  }
}

TEST(NetServer, TypedErrorsForEveryBadAddress) {
  auto opened = open_server();
  auto client = dial(*opened.server);
  ASSERT_TRUE(client);
  db::Value out = 0;

  auto status = client->query(kMaxLevel + 1, 0, out);
  EXPECT_EQ(status.code, ErrorCode::kBadLevel);
  status = client->query(3, solved().level(3).size(), out);
  EXPECT_EQ(status.code, ErrorCode::kBadIndex);

  idx::Board board{};
  board[0] = static_cast<std::uint8_t>(kMaxLevel + 1);  // too many stones
  status = client->query_board(board, out);
  EXPECT_EQ(status.code, ErrorCode::kBadBoard);

  std::vector<db::Value> values;
  const std::vector<idx::Index> bad = {0, solved().level(2).size()};
  status = client->batch_query(2, bad, values);
  EXPECT_EQ(status.code, ErrorCode::kBadIndex);

  // The connection survives typed errors: a good query still answers.
  EXPECT_TRUE(client->query(2, 0, out).ok());
}

TEST(NetServer, GarbageBytesGetDiagnosedThenDisconnected) {
  auto opened = open_server();
  auto connected = Client::connect("127.0.0.1", opened.server->port());
  ASSERT_TRUE(connected.ok);
  // Speak raw garbage on the socket underneath the client: the server
  // must answer one typed ERROR frame and close.
  auto raw = connect_tcp("127.0.0.1", opened.server->port());
  ASSERT_TRUE(raw.ok);
  const char garbage[32] = "this is not a retra-net frame";
  ASSERT_TRUE(write_full(raw.fd.get(), garbage, sizeof garbage));
  std::byte header_bytes[FrameHeader::kWireSize];
  ASSERT_TRUE(read_full(raw.fd.get(), header_bytes, sizeof header_bytes));
  msg::WireReader reader(header_bytes);
  const FrameHeader header = FrameHeader::decode(reader);
  EXPECT_EQ(static_cast<Op>(header.op), Op::kError);
  EXPECT_EQ(static_cast<ErrorCode>(header.code), ErrorCode::kBadMagic);
  // Then EOF, not a hang.
  std::byte more;
  EXPECT_EQ(read_some(raw.fd.get(), &more, 1), 0);
}

TEST(NetServer, OversizedAnnouncementIsRefusedBeforeAllocation) {
  auto opened = open_server();
  auto raw = connect_tcp("127.0.0.1", opened.server->port());
  ASSERT_TRUE(raw.ok);
  FrameHeader header;
  header.op = static_cast<std::uint8_t>(Op::kBatchQuery);
  header.request_id = 5;
  header.payload_bytes = kMaxPayloadBytes + 1;
  std::byte bytes[FrameHeader::kWireSize];
  header.encode(bytes);
  ASSERT_TRUE(write_full(raw.fd.get(), bytes, sizeof bytes));
  std::byte reply[FrameHeader::kWireSize];
  ASSERT_TRUE(read_full(raw.fd.get(), reply, sizeof reply));
  msg::WireReader reader(reply);
  const FrameHeader back = FrameHeader::decode(reader);
  EXPECT_EQ(static_cast<Op>(back.op), Op::kError);
  EXPECT_EQ(static_cast<ErrorCode>(back.code), ErrorCode::kOversizedFrame);
  EXPECT_EQ(back.request_id, 5u);
}

TEST(NetServer, ResponseOpFromClientIsRejected) {
  auto opened = open_server();
  auto raw = connect_tcp("127.0.0.1", opened.server->port());
  ASSERT_TRUE(raw.ok);
  const auto frame = encode_pong(9);  // a response op, sent as a request
  ASSERT_TRUE(write_full(raw.fd.get(), frame.data(), frame.size()));
  std::byte reply[FrameHeader::kWireSize];
  ASSERT_TRUE(read_full(raw.fd.get(), reply, sizeof reply));
  msg::WireReader reader(reply);
  const FrameHeader back = FrameHeader::decode(reader);
  EXPECT_EQ(static_cast<Op>(back.op), Op::kError);
  EXPECT_EQ(static_cast<ErrorCode>(back.code), ErrorCode::kBadOp);
}

TEST(NetServer, StatsReconcileWithObsAndWithTrafficSent) {
  [[maybe_unused]] const obs::Snapshot before = obs::snapshot();
  ServerConfig config;
  config.budget_bytes = 2048;
  auto opened = open_server(config);
  Server& server = *opened.server;
  auto client = dial(server);
  ASSERT_TRUE(client);

  support::Xoshiro256 rng(17);
  std::uint64_t asked = 0;
  db::Value out = 0;
  for (int q = 0; q < 100; ++q) {
    const int level = 1 + static_cast<int>(rng.below(kMaxLevel));
    ASSERT_TRUE(client
                    ->query(static_cast<std::uint32_t>(level),
                            rng.below(solved().level(level).size()), out)
                    .ok());
    ++asked;
  }
  std::vector<idx::Index> indices(50);
  for (auto& index : indices) {
    index = rng.below(solved().level(4).size());
  }
  std::vector<db::Value> values;
  ASSERT_TRUE(client->batch_query(4, indices, values).ok());
  asked += indices.size();
  ASSERT_TRUE(client->ping().ok());

  // The remote STATS view, the local mirror, and the obs registry must
  // all tell the same story.
  StatsReply remote;
  ASSERT_TRUE(client->stats(remote).ok());
  const Server::Stats local = server.stats();
  EXPECT_EQ(remote.connections, local.connections);
  EXPECT_EQ(remote.queries, local.queries);
  EXPECT_EQ(remote.batch_queries, local.batch_queries);
  EXPECT_EQ(remote.pings, local.pings);
  EXPECT_EQ(remote.stats_ops, local.stats_ops);  // includes itself
  EXPECT_EQ(remote.hot_hits, local.hot_hits);
  EXPECT_EQ(remote.queries, 100u);
  EXPECT_EQ(remote.batch_queries, 1u);
  EXPECT_EQ(remote.pings, 1u);
  EXPECT_EQ(remote.stats_ops, 1u);
  EXPECT_EQ(remote.requests, 102u + remote.stats_ops);
  EXPECT_EQ(remote.errors, 0u);
  EXPECT_EQ(remote.shed, 0u);
  ASSERT_EQ(remote.level_sizes.size(),
            static_cast<std::size_t>(kMaxLevel + 1));
  for (int level = 0; level <= kMaxLevel; ++level) {
    EXPECT_EQ(remote.level_sizes[static_cast<std::size_t>(level)],
              solved().level(level).size());
  }

  // Every position asked was answered by the hot tier or the service.
  EXPECT_EQ(remote.hot_hits + remote.lookups, asked);

#if RETRA_METRICS_ENABLED
  const obs::Snapshot delta = obs::snapshot() - before;
  EXPECT_EQ(delta[obs::Id::kNetConnections].value, local.connections);
  EXPECT_EQ(delta[obs::Id::kNetRequests].value, local.requests);
  EXPECT_EQ(delta[obs::Id::kNetHotHits].value, local.hot_hits);
  EXPECT_EQ(delta[obs::Id::kNetShed].value, 0u);
  // One latency observation per answered request.
  EXPECT_EQ(delta[obs::Id::kNetQueryMicros].count, remote.queries);
  EXPECT_EQ(delta[obs::Id::kNetBatchMicros].count, remote.batch_queries);
  EXPECT_EQ(delta[obs::Id::kNetOtherMicros].count,
            remote.pings + remote.stats_ops);
  EXPECT_GT(delta[obs::Id::kNetBytesIn].value, 0u);
  EXPECT_GT(delta[obs::Id::kNetBytesOut].value, 0u);
#endif  // RETRA_METRICS_ENABLED
}

TEST(NetServer, CleanShutdownWithConnectionsOpen) {
  auto opened = open_server();
  Server& server = *opened.server;
  // Several connections left open, one with answered traffic behind it.
  auto busy = dial(server);
  auto idle_a = dial(server);
  auto idle_b = dial(server);
  ASSERT_TRUE(busy && idle_a && idle_b);
  std::vector<idx::Index> indices(256);
  std::iota(indices.begin(), indices.end(), idx::Index{0});
  std::vector<db::Value> values(indices.size());
  ASSERT_TRUE(busy->pipelined_queries(5, indices, values).ok());

  server.stop();  // must not hang on the open connections

  // Clients observe orderly EOF, not a stuck read.
  EXPECT_FALSE(idle_a->ping().ok());
  EXPECT_FALSE(busy->ping().ok());
  // stop() is idempotent.
  server.stop();
}

TEST(NetServer, InFlightPipelineIsAnsweredAcrossStop) {
  // Requests admitted before stop() must be answered, not dropped: fire
  // a pipeline, call stop() immediately, then read every response.
  ServerConfig config;
  config.budget_bytes = 2048;  // slow the workers down with faulting
  auto opened = open_server(config);
  Server& server = *opened.server;
  auto client = dial(server);
  ASSERT_TRUE(client);
  const std::uint64_t size = solved().level(kMaxLevel).size();
  std::vector<idx::Index> indices(512);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<idx::Index>(i) % size;
  }
  // Write the frames ourselves, then stop the server mid-flight.
  std::thread stopper([&server] { server.stop(); });
  std::vector<db::Value> values(indices.size());
  std::vector<ErrorCode> codes;
  const auto status =
      client->pipelined_queries(kMaxLevel, indices, values, &codes);
  stopper.join();
  if (status.ok()) {
    // Every response that arrived is correct and exactly-once.
    for (std::size_t i = 0; i < indices.size(); ++i) {
      if (codes[i] == ErrorCode::kNone) {
        EXPECT_EQ(values[i], solved().value(kMaxLevel, indices[i]));
      } else {
        EXPECT_EQ(codes[i], ErrorCode::kBusy);
      }
    }
  }
  // Whether the race admitted all, some (then EOF), or none, stop()
  // returned and the server wound down — that is the contract.
}

}  // namespace
}  // namespace retra::net
