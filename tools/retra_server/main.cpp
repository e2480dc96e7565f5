// retra_server — serve an RTRADB database file over TCP (retra-net-v1).
//
// Opens the database behind a budgeted QueryService, layers the shared
// hot tier and the epoll server on top (src/net), prints the bound
// address, and runs until SIGINT/SIGTERM.  Port 0 (the default) asks the
// kernel for an ephemeral port — scripts read it from stdout or from
// --port-file, which is written atomically after the server is
// accepting.
//
//   $ retra_server --db=/tmp/awari8.db --port=7411
//   $ retra_server --db=/tmp/awari8.db --budget-kb=16 --port-file=/tmp/p
//
// docs/PROTOCOL.md documents the wire format; retra_serve --connect and
// bench_q2_server are the bundled clients.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "retra/net/server.hpp"
#include "retra/support/cli.hpp"

namespace {

using namespace retra;

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

bool write_port_file(const std::string& path, std::uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return true;
}

void print_stats(const net::Server& server) {
  const net::Server::Stats stats = server.stats();
  std::printf(
      "served: %llu connections, %llu requests (%llu query, %llu batch, "
      "%llu ping, %llu stats), %llu errors (%llu shed), %llu hot hits\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.batch_queries),
      static_cast<unsigned long long>(stats.pings),
      static_cast<unsigned long long>(stats.stats_ops),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.hot_hits));
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Serve an RTRADB database file over TCP with the retra-net-v1 "
      "protocol (docs/PROTOCOL.md).");
  cli.flag("db", "", "database file to serve (required)");
  cli.flag("host", "127.0.0.1", "numeric IPv4 address to bind");
  cli.flag("port", "0", "TCP port (0 = kernel-chosen ephemeral port)");
  cli.flag("port-file", "",
           "write the bound port here once the server is accepting");
  cli.flag("workers", "2", "lookup worker threads");
  cli.flag("budget-kb", "0", "block-cache budget (0 = unlimited)");
  cli.flag("hot-kb", "1024", "shared hot-tier budget (0 disables the tier)");
  cli.flag("max-queue", "1024", "queued requests before BUSY shedding");
  cli.parse(argc, argv);

  const std::string path = cli.str("db");
  if (path.empty()) {
    std::fprintf(stderr, "--db is required (see --help)\n");
    return 1;
  }
  net::ServerConfig config;
  config.host = cli.str("host");
  config.port = static_cast<std::uint16_t>(cli.integer("port"));
  config.workers = static_cast<int>(cli.integer("workers"));
  config.budget_bytes =
      static_cast<std::uint64_t>(cli.integer("budget-kb")) * 1024;
  config.hot_bytes = static_cast<std::uint64_t>(cli.integer("hot-kb")) * 1024;
  config.max_queue_depth =
      static_cast<std::size_t>(cli.integer("max-queue"));

  auto opened = net::Server::open(path, config);
  if (!opened.ok) {
    std::fprintf(stderr, "cannot serve %s: %s\n", path.c_str(),
                 opened.error.c_str());
    return 1;
  }
  net::Server& server = *opened.server;
  std::printf("retra_server: serving %s (%d levels) on %s:%u\n",
              path.c_str(), server.num_levels(), config.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (const std::string port_file = cli.str("port-file");
      !port_file.empty() && !write_port_file(port_file, server.port())) {
    std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("retra_server: stopping\n");
  server.stop();
  print_stats(server);
  return 0;
}
