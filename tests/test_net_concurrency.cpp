// Concurrency tests for the retra-net-v1 server: many client threads,
// pipelined batches, a resident-byte budget squeezed far below the
// database, and admission control actually shedding.
//
// The invariants under fire:
//   * exactly-once — every pipelined request gets exactly one response,
//     matched by request_id, no losses, no cross-wiring between the
//     connections the workers coalesce across;
//   * correctness under thrash — every answered value equals the
//     in-memory oracle, even while the service faults and evicts
//     continuously and the hot tier promotes concurrently;
//   * typed shedding — a full request queue refuses with kBusy, never
//     wedges, and the connection keeps working;
//   * accounting — after the dust settles, admitted == answered.
//
// CI runs this binary under TSan (tsan_net job): the Store's
// shared-lock hot path and the worker/IO handoffs must be clean.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "retra/game/awari_level.hpp"
#include "retra/net/client.hpp"
#include "retra/net/server.hpp"
#include "retra/ra/builder.hpp"
#include "retra/support/rng.hpp"

namespace retra::net {
namespace {

constexpr int kMaxLevel = 6;

const db::Database& solved() {
  static const db::Database database =
      ra::build_database(game::AwariFamily{}, kMaxLevel);
  return database;
}

/// Per-process scratch fixture, removed at exit.  ctest runs each case as
/// its own process; a fixed shared path races one process's rewrite
/// against a sibling's read.
struct ScratchDb {
  ScratchDb() {
    path = (std::filesystem::temp_directory_path() /
            ("retra_test_net_concurrency." + std::to_string(::getpid()) +
             ".db"))
               .string();
    db::save(solved(), path,
             db::Format{.block_positions = db::kMaxBlockPositions});
  }
  ~ScratchDb() { std::remove(path.c_str()); }
  std::string path;
};

const std::string& fixture_path() {
  static const ScratchDb fixture;
  return fixture.path;
}

TEST(NetConcurrency, ManyThreadsPipelinedUnderTinyBudgetStayExact) {
  ServerConfig config;
  config.workers = 4;
  config.budget_bytes = 1024;  // a sliver: constant fault + evict
  config.hot_bytes = 2048;     // hot tier churns too
  config.max_queue_depth = 64;  // pipelined bursts can shed
  auto opened = Server::open(fixture_path(), config);
  ASSERT_TRUE(opened.ok) << opened.error;
  Server& server = *opened.server;

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr std::size_t kPipeline = 32;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto connected = Client::connect("127.0.0.1", server.port());
      if (!connected.ok) {
        failures.fetch_add(1);
        return;
      }
      Client& client = *connected.client;
      support::Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      std::vector<idx::Index> indices(kPipeline);
      std::vector<db::Value> values(kPipeline);
      std::vector<ErrorCode> codes;
      for (int round = 0; round < kRounds; ++round) {
        const int level =
            1 + static_cast<int>(rng.below(kMaxLevel));
        for (auto& index : indices) {
          index = rng.below(solved().level(level).size());
        }
        const auto status = client.pipelined_queries(
            static_cast<std::uint32_t>(level), indices, values, &codes);
        if (!status.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (std::size_t i = 0; i < kPipeline; ++i) {
          if (codes[i] == ErrorCode::kNone) {
            // Exactly-once and correctly wired: the value under this
            // request_id is the value of the index sent under it.
            if (values[i] != solved().value(level, indices[i])) {
              failures.fetch_add(1);
              return;
            }
            answered.fetch_add(1);
          } else if (codes[i] == ErrorCode::kBusy) {
            shed.fetch_add(1);
          } else {
            failures.fetch_add(1);  // no other error is legitimate here
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answered.load(), 0u);

  server.stop();
  const Server::Stats stats = server.stats();
  // Client-side and server-side books agree exactly.
  EXPECT_EQ(stats.queries, answered.load());
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kThreads));
  // Everything admitted was answered: no request lost in shutdown.
  EXPECT_EQ(stats.requests, stats.queries + stats.batch_queries +
                                stats.pings + stats.stats_ops);
}

TEST(NetConcurrency, ZeroQueueDepthShedsTypedBusy) {
  ServerConfig config;
  config.workers = 2;
  config.budget_bytes = 1024;
  // No request fits in the queue: every one sheds, deterministically.
  config.max_queue_depth = 0;
  auto opened = Server::open(fixture_path(), config);
  ASSERT_TRUE(opened.ok) << opened.error;
  auto connected = Client::connect("127.0.0.1", opened.server->port());
  ASSERT_TRUE(connected.ok);
  Client& client = *connected.client;

  constexpr int kTries = 5;
  for (int i = 0; i < kTries; ++i) {
    db::Value out = 0;
    EXPECT_EQ(client.query(kMaxLevel, static_cast<idx::Index>(i), out).code,
              ErrorCode::kBusy);
  }
  // The shed is an answer, not a disconnect: the connection keeps
  // answering typed BUSY (PING is admitted through the same queue) and
  // the books count every shed.
  EXPECT_EQ(client.ping().code, ErrorCode::kBusy);
  const Server::Stats stats = opened.server->stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(kTries + 1));
  EXPECT_EQ(stats.errors, stats.shed);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(NetConcurrency, BatchSweepsRaceSinglesAcrossConnections) {
  // Whole-level batch sweeps on some threads, random singles on others:
  // the coalescing workers see mixed gulps; everything must stay exact.
  ServerConfig config;
  config.workers = 4;
  config.budget_bytes = 2048;
  config.hot_bytes = 4096;
  auto opened = Server::open(fixture_path(), config);
  ASSERT_TRUE(opened.ok) << opened.error;
  Server& server = *opened.server;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      auto connected = Client::connect("127.0.0.1", server.port());
      if (!connected.ok) {
        failures.fetch_add(1);
        return;
      }
      auto adapted = ClientValueSource::open(*connected.client);
      if (!adapted.ok) {
        failures.fetch_add(1);
        return;
      }
      for (int level = 1; level <= kMaxLevel; ++level) {
        if (adapted.source->level_values(level) != solved().level(level)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto connected = Client::connect("127.0.0.1", server.port());
      if (!connected.ok) {
        failures.fetch_add(1);
        return;
      }
      support::Xoshiro256 rng(500 + static_cast<std::uint64_t>(t));
      for (int q = 0; q < 400; ++q) {
        const int level = 1 + static_cast<int>(rng.below(kMaxLevel));
        const idx::Index index = rng.below(solved().level(level).size());
        db::Value out = 0;
        Client::Status status;
        do {  // kBusy is a legitimate shed when the queue fills
          status = connected.client->query(
              static_cast<std::uint32_t>(level), index, out);
        } while (status.code == ErrorCode::kBusy);
        if (!status.ok() || out != solved().value(level, index)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace retra::net
