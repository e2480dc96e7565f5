// retra_serve — inspect and serve an RTRADB database file.
//
// Three things, composable in one invocation:
//
//   * inspect: with no boards and no --selfcheck, print the file's level
//     directory (format version, per-level packing, payload bytes) from a
//     header scan that never materialises a payload;
//   * answer: each positional argument is a board ("1 2 0 0 1 0  0 1 0 2
//     0 1", mover's pits first) answered through the budgeted
//     QueryService — value and best moves;
//   * --selfcheck=N: rebuild the database in memory and compare N random
//     (level, index) samples against the served answers, exit 1 on any
//     mismatch.  CI's serve_smoke job runs this under a deliberately tiny
//     --budget-kb so every sample exercises fault + evict paths.
//
// With --connect=host:port the same answer/selfcheck paths run against a
// remote retra_server instead of a local file: lookups travel as
// retra-net-v1 frames through net::ClientValueSource (kBusy sheds are
// retried), so the selfcheck proves the whole network stack returns the
// same bytes the in-memory rebuild does.
//
//   $ retra_serve --db=/tmp/awari8.db
//   $ retra_serve --db=/tmp/awari8.db --budget-kb=16 --selfcheck=5000
//   $ retra_serve --db=/tmp/awari8.db "1 2 0 0 1 0  0 1 0 2 0 1"
//   $ retra_serve --connect=127.0.0.1:7411 --selfcheck=2000
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "retra/game/awari_level.hpp"
#include "retra/net/client.hpp"
#include "retra/ra/builder.hpp"
#include "retra/ra/oracle.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/cli.hpp"
#include "retra/support/rng.hpp"
#include "retra/support/table.hpp"

namespace {

using namespace retra;

/// "raw:3 rle:1 freq:12" — how many blocks of the level landed on each
/// compression scheme.
std::string scheme_histogram(const db::LevelLocation& location) {
  int counts[db::kBlockSchemeCount] = {};
  for (const db::BlockLocation& block : location.blocks) {
    ++counts[static_cast<int>(block.scheme)];
  }
  std::string text;
  static constexpr const char* kNames[db::kBlockSchemeCount] = {"raw", "rle",
                                                                "freq"};
  for (int s = 0; s < db::kBlockSchemeCount; ++s) {
    if (counts[s] == 0) continue;
    if (!text.empty()) text += ' ';
    text += kNames[s];
    text += ':';
    text += std::to_string(counts[s]);
  }
  return text.empty() ? "-" : text;
}

void print_index(const std::string& path, const db::FileIndex& index) {
  std::printf("%s: RTRADB%02d, %zu levels\n\n", path.c_str(), index.version,
              index.levels.size());
  const bool blocked = index.version == 3;
  std::vector<std::string> headers = {"level", "positions", "bits", "offset",
                                      "payload bytes"};
  if (blocked) {
    headers.insert(headers.end(), {"blocks", "ratio", "schemes"});
  }
  support::Table table(headers);
  for (const db::LevelLocation& location : index.levels) {
    auto& row = table.row();
    row.add(location.level)
        .add(support::with_thousands(location.size))
        .add(location.raw ? std::to_string(location.bits) + " raw"
                          : std::to_string(location.bits))
        .add(static_cast<std::int64_t>(location.offset))
        .add(support::with_thousands(location.payload_bytes));
    if (blocked) {
      const double ratio =
          location.payload_bytes == 0
              ? 1.0
              : static_cast<double>(location.decoded_bytes()) /
                    static_cast<double>(location.payload_bytes);
      row.add(location.block_count())
          .add(ratio)
          .add(scheme_histogram(location));
    }
  }
  table.print();
  std::printf("\ntotal payload: %s bytes\n",
              support::with_thousands(index.total_payload_bytes()).c_str());
  if (blocked) {
    std::printf("total decoded: %s bytes (overall ratio %.2f)\n",
                support::with_thousands(index.total_decoded_bytes()).c_str(),
                index.total_payload_bytes() == 0
                    ? 1.0
                    : static_cast<double>(index.total_decoded_bytes()) /
                          static_cast<double>(index.total_payload_bytes()));
  }
}

void answer(serve::ValueSource& source, const game::Board& board) {
  std::printf("%s\n", game::board_to_string(board).c_str());
  if (game::is_terminal(board)) {
    std::printf("  terminal: mover nets %d\n", game::terminal_reward(board));
    return;
  }
  if (const int stones = idx::stones_on(board); !source.covers(stones)) {
    std::printf("  not covered: %d stones on board, database stops at %d\n",
                stones, source.num_levels() - 1);
    return;
  }
  std::printf("  value: %+d stones net for the player to move\n",
              static_cast<int>(ra::position_value(source, board)));
  for (const auto& eval : ra::evaluate_moves(source, board)) {
    std::printf("  pit %d -> %+d%s\n", eval.pit,
                static_cast<int>(eval.value),
                eval.captured
                    ? (" (captures " + std::to_string(eval.captured) + ")")
                          .c_str()
                    : "");
  }
}

/// Compares `samples` random served values against a fresh in-memory
/// rebuild; returns the number of mismatches (each printed).
int selfcheck(serve::ValueSource& source, int samples, std::uint64_t seed) {
  const int top = source.num_levels() - 1;
  std::printf("selfcheck: rebuilding levels 0..%d in memory...\n", top);
  const db::Database database =
      ra::build_database(game::AwariFamily{}, top);
  support::Xoshiro256 rng(seed);
  int mismatches = 0;
  for (int s = 0; s < samples; ++s) {
    const int level =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(top + 1)));
    const idx::Index index = rng.below(source.level_size(level));
    const db::Value served = source.value(level, index);
    const db::Value built = database.value(level, index);
    if (served != built) {
      ++mismatches;
      std::printf(
          "  MISMATCH level %d index %llu: served %d, rebuilt %d\n", level,
          static_cast<unsigned long long>(index), static_cast<int>(served),
          static_cast<int>(built));
    }
  }
  std::printf("selfcheck: %d samples, %d mismatches\n", samples, mismatches);
  return mismatches;
}

void print_remote_index(const std::string& target,
                        const serve::ValueSource& source) {
  std::printf("%s: %d served levels\n\n", target.c_str(),
              source.num_levels());
  support::Table table({"level", "positions"});
  for (int level = 0; level < source.num_levels(); ++level) {
    table.row().add(level).add(
        support::with_thousands(source.level_size(level)));
  }
  table.print();
}

void print_remote_stats(const net::StatsReply& stats) {
  std::printf(
      "\nserver: %llu connections, %llu requests, %llu errors (%llu "
      "shed), %llu hot hits; service: %llu lookups; block cache: %llu "
      "faults, %llu evictions, %llu bytes resident\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.hot_hits),
      static_cast<unsigned long long>(stats.lookups),
      static_cast<unsigned long long>(stats.faults),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.resident_bytes));
}

/// The whole --connect mode: dial, adapt, and run the same inspect /
/// answer / selfcheck paths the local mode runs.
int run_connected(const std::string& target, const support::Cli& cli) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants host:port, got %s\n",
                 target.c_str());
    return 1;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "--connect: bad port in %s\n", target.c_str());
    return 1;
  }
  auto connected =
      net::Client::connect(host, static_cast<std::uint16_t>(port));
  if (!connected.ok) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", target.c_str(),
                 connected.error.c_str());
    return 1;
  }
  auto adapted = net::ClientValueSource::open(*connected.client);
  if (!adapted.ok) {
    std::fprintf(stderr, "handshake with %s failed: %s\n", target.c_str(),
                 adapted.error.c_str());
    return 1;
  }
  serve::ValueSource& source = *adapted.source;

  const int samples = static_cast<int>(cli.integer("selfcheck"));
  if (cli.positional().empty() && samples == 0) {
    print_remote_index(target, source);
    return 0;
  }
  for (const std::string& text : cli.positional()) {
    answer(source, game::board_from_string(text.c_str()));
  }
  int mismatches = 0;
  if (samples > 0) {
    mismatches = selfcheck(source, samples,
                           static_cast<std::uint64_t>(cli.integer("seed")));
  }
  if (cli.boolean("stats")) {
    net::StatsReply stats;
    if (connected.client->stats(stats).ok()) print_remote_stats(stats);
  }
  return mismatches == 0 ? 0 : 1;
}

void print_stats(const serve::QueryService& service) {
  const serve::QueryService::Stats stats = service.stats();
  std::printf(
      "\nserving: %llu lookups in %llu batches; block cache: %llu hits, "
      "%llu faults, %llu evictions, %llu bytes resident\n",
      static_cast<unsigned long long>(stats.lookups),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.faults),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.resident_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Inspect and serve an RTRADB database file: level directory, board "
      "queries, and a rebuild-and-compare selfcheck.");
  cli.flag("db", "", "database file to serve (required unless --connect)");
  cli.flag("connect", "",
           "host:port of a running retra_server to query instead of a "
           "local file");
  cli.flag("budget-kb", "0", "block-cache budget (0 = unlimited)");
  cli.flag("selfcheck", "0",
           "compare this many random samples against an in-memory rebuild");
  cli.flag("seed", "7", "selfcheck sampling seed");
  cli.flag("stats", "true", "print serving counters after queries");
  cli.parse(argc, argv);

  if (const std::string target = cli.str("connect"); !target.empty()) {
    if (!cli.str("db").empty()) {
      std::fprintf(stderr, "--db and --connect are mutually exclusive\n");
      return 1;
    }
    return run_connected(target, cli);
  }
  const std::string path = cli.str("db");
  if (path.empty()) {
    std::fprintf(stderr, "--db or --connect is required (see --help)\n");
    return 1;
  }
  serve::QueryServiceConfig config;
  config.budget_bytes =
      static_cast<std::uint64_t>(cli.integer("budget-kb")) * 1024;
  auto opened = serve::QueryService::open(path, config);
  if (!opened.ok) {
    std::fprintf(stderr, "cannot serve %s: %s\n", path.c_str(),
                 opened.error.c_str());
    return 1;
  }
  serve::QueryService& service = *opened.service;

  const int samples = static_cast<int>(cli.integer("selfcheck"));
  const bool inspect_only = cli.positional().empty() && samples == 0;
  if (inspect_only) {
    print_index(path, service.index());
    return 0;
  }

  for (const std::string& text : cli.positional()) {
    answer(service, game::board_from_string(text.c_str()));
  }

  int mismatches = 0;
  if (samples > 0) {
    mismatches = selfcheck(
        service, samples, static_cast<std::uint64_t>(cli.integer("seed")));
  }
  if (cli.boolean("stats")) print_stats(service);
  return mismatches == 0 ? 0 : 1;
}
