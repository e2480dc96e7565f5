// Q2 — Network serving latency and throughput.
//
// Spins up an in-process retra-net-v1 server (src/net) over an RTRADB03
// database and drives it with the shared load generator
// (bench_net_common.hpp) at several connection counts, closed-loop and
// pipelined: per-round-trip p50/p99 latency, round trips per second,
// and answered lookups per second.
//
//   $ bench_q2_server --level=7 --connections=1,4,16 --requests=2000
//   $ bench_q2_server --db=/tmp/awari8.db --budget-kb=16 --pipeline=16
//
// --json writes a retra-bench-v1 artifact whose metrics array is the
// obs delta of the load phases only — net.requests, net.hot_hits,
// net.query_us and friends reconcile with the printed tables
// (tests/test_net_server.cpp locks the counter pipeline down).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_net_common.hpp"
#include "retra/net/server.hpp"
#include "retra/ra/builder.hpp"

namespace {

using namespace retra;

std::vector<int> parse_counts(const std::string& text) {
  std::vector<int> counts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string item =
        text.substr(begin, comma == std::string::npos ? comma
                                                      : comma - begin);
    if (const int value = std::atoi(item.c_str()); value > 0) {
      counts.push_back(value);
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return counts;
}

void add_row(support::Table& table, int connections, const char* mode,
             const bench::NetLoadResult& result) {
  table.row()
      .add(connections)
      .add(mode)
      .add(static_cast<std::int64_t>(result.latencies_us.size()))
      .add(static_cast<std::int64_t>(result.lookups))
      .add(static_cast<std::int64_t>(result.busy))
      .add(result.percentile(0.50))
      .add(result.percentile(0.99))
      .add(result.round_trips_per_second() / 1e3)
      .add(result.lookups_per_second() / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Network serving bench: closed-loop and pipelined lookup latency "
      "and throughput against an in-process retra-net-v1 server.");
  cli.flag("db", "", "serve this database file (default: build and save)");
  cli.flag("level", "7", "levels to build when no --db is given");
  cli.flag("budget-kb", "0", "QueryService budget (0 = unlimited)");
  cli.flag("hot-kb", "1024", "hot-tier budget (0 disables the tier)");
  cli.flag("workers", "2", "server worker threads");
  cli.flag("connections", "1,4,16", "client connection counts to sweep");
  cli.flag("requests", "2000", "round trips per connection");
  cli.flag("pipeline", "8", "queries in flight in the pipelined mode");
  cli.flag("seed", "7", "workload random seed");
  bench::add_output_flags(cli);
  cli.parse(argc, argv);

  std::string path = cli.str("db");
  std::string scratch;
  if (path.empty()) {
    const int level = static_cast<int>(cli.integer("level"));
    const db::Database database =
        ra::build_database(game::AwariFamily{}, level);
    scratch = (std::filesystem::temp_directory_path() /
               ("bench_q2_awari" + std::to_string(level) + ".db"))
                  .string();
    db::save(database, scratch);
    path = scratch;
    std::printf("built levels 0..%d and saved them to %s\n", level,
                path.c_str());
  }

  net::ServerConfig config;
  config.workers = static_cast<int>(cli.integer("workers"));
  config.budget_bytes =
      static_cast<std::uint64_t>(cli.integer("budget-kb")) * 1024;
  config.hot_bytes = static_cast<std::uint64_t>(cli.integer("hot-kb")) * 1024;
  auto opened = net::Server::open(path, config);
  if (!opened.ok) {
    std::fprintf(stderr, "cannot serve %s: %s\n", path.c_str(),
                 opened.error.c_str());
    return 1;
  }
  net::Server& server = *opened.server;
  const std::vector<std::uint64_t> sizes = server.store().level_sizes();
  std::printf(
      "serving %s: %d levels on 127.0.0.1:%u, %d workers, budget %llu, "
      "hot %llu\n",
      path.c_str(), server.num_levels(),
      static_cast<unsigned>(server.port()), config.workers,
      static_cast<unsigned long long>(config.budget_bytes),
      static_cast<unsigned long long>(config.hot_bytes));

  bench::NetLoadConfig load;
  load.requests_per_connection = static_cast<int>(cli.integer("requests"));
  load.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const auto pipeline =
      static_cast<std::size_t>(cli.integer("pipeline"));

  const obs::Snapshot before = obs::snapshot();
  support::Table table({"conns", "mode", "round trips", "lookups", "busy",
                        "p50 us", "p99 us", "kRT/s", "klookups/s"});
  for (const int connections : parse_counts(cli.str("connections"))) {
    load.connections = connections;
    load.pipeline = 1;
    bench::NetLoadResult closed =
        bench::run_net_load("127.0.0.1", server.port(), sizes, load);
    if (!closed.ok) {
      std::fprintf(stderr, "load failed: %s\n", closed.error.c_str());
      return 1;
    }
    add_row(table, connections, "closed", closed);

    load.pipeline = pipeline;
    bench::NetLoadResult piped =
        bench::run_net_load("127.0.0.1", server.port(), sizes, load);
    if (!piped.ok) {
      std::fprintf(stderr, "load failed: %s\n", piped.error.c_str());
      return 1;
    }
    const std::string mode = "piped x" + std::to_string(pipeline);
    add_row(table, connections, mode.c_str(), piped);
  }
  const obs::Snapshot delta = obs::snapshot() - before;
  table.print();

  const net::Server::Stats stats = server.stats();
  std::printf(
      "\nserver: %llu connections, %llu requests, %llu hot hits, %llu "
      "shed\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.hot_hits),
      static_cast<unsigned long long>(stats.shed));
  server.stop();

  bench::BenchRunMeta meta;
  meta.suite = "q2";
  meta.bench = "bench_q2_server";
  meta.max_level = server.num_levels() - 1;
  meta.ranks = 1;
  meta.combine_bytes = 0;
  if (!bench::write_micro_artifact(cli.str("json"), meta, delta)) return 1;

  if (!scratch.empty()) std::remove(scratch.c_str());
  return 0;
}
