// The retra-net-v1 TCP server over a QueryService.
//
// One epoll I/O thread owns every socket: it accepts connections, feeds
// raw reads through each connection's FrameBuffer, validates and admits
// requests, and flushes response bytes.  A pool of worker threads drains
// the shared request queue in gulps: all single QUERYs in a gulp that
// address the same level — regardless of which connection sent them —
// are coalesced into one Store::values() batch, so concurrent clients
// asking about the same level cost one residency touch, not N.  Workers
// never touch sockets; they enqueue encoded response frames on the
// owning connection and wake the I/O thread through an eventfd.
//
// Admission control sheds load with a typed BUSY error instead of
// queueing without bound: a request is refused when the queue already
// holds max_queue_depth requests.  A shed request costs the client one
// round trip and a retry, never a wedged server.
//
// Every observable event is published twice: through the net.* obs
// metrics and through the atomic Stats mirror that the STATS op
// serialises, so a remote client, the local registry, and a bench
// artifact can be reconciled exactly (tests/test_net_server.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "retra/net/protocol.hpp"
#include "retra/net/store.hpp"

namespace retra::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() reports it
  int workers = 2;
  /// QueryService resident-byte budget (0 = unlimited).
  std::uint64_t budget_bytes = 0;
  /// Hot-tier byte budget above the service (0 disables the tier).
  std::uint64_t hot_bytes = 1u << 20;
  /// Requests queued ahead of the workers before BUSY shedding (the
  /// one admission rule; 0 sheds every request).
  std::size_t max_queue_depth = 1024;
  /// Most requests one worker wake-up drains (the coalescing window).
  std::size_t max_drain = 256;
};

class Server {
 public:
  struct OpenResult {
    bool ok = false;
    std::string error;
    std::unique_ptr<Server> server;
  };
  /// Opens `path` as a QueryService, binds, and starts serving.
  static OpenResult open(const std::string& path, const ServerConfig& config);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the kernel's choice under config.port == 0).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }
  int num_levels() const { return store_->num_levels(); }
  const Store& store() const { return *store_; }

  /// Stops accepting, answers everything already admitted, flushes, and
  /// joins all threads.  Idempotent; the destructor calls it.
  void stop();

  /// Plain-data copy of the server-side counters (the STATS op adds the
  /// QueryService block-cache fields and the level directory).
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t queries = 0;
    std::uint64_t batch_queries = 0;
    std::uint64_t pings = 0;
    std::uint64_t stats_ops = 0;
    std::uint64_t errors = 0;
    std::uint64_t shed = 0;
    std::uint64_t hot_hits = 0;
  };
  Stats stats() const;

  /// The full STATS-op payload, as a network client would receive it.
  StatsReply stats_reply() const;

 private:
  struct Passkey {};

 public:
  Server(Passkey, std::unique_ptr<Store> store, const ServerConfig& config);

 private:
  struct Impl;

  bool start(std::string* error);

  ServerConfig config_;
  std::unique_ptr<Store> store_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace retra::net
