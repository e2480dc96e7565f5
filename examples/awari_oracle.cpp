// Awari endgame oracle: answer value/best-move queries from a database.
//
// Boards are given as twelve pit counts, mover's pits first:
//
//   $ awari_oracle --level=8 "1 2 0 0 1 0  0 1 0 2 0 1"
//   $ awari_oracle --db=/tmp/awari10.db --line "0 0 2 1 0 0  1 0 0 0 1 1"
//   $ awari_oracle --db=/tmp/awari10.db --budget-kb=64  # capped residency
//
// With no positional arguments, reads one board per line from stdin.
// Queries go through serve::ValueSource: --db serves straight from the
// file with lazy level residency (and an optional byte budget) instead of
// loading the whole database up front.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "retra/game/awari_level.hpp"
#include "retra/ra/builder.hpp"
#include "retra/ra/oracle.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/cli.hpp"

namespace {

using namespace retra;

void answer(serve::ValueSource& source, const game::Board& board,
            bool with_line) {
  std::printf("%s\n", game::board_to_string(board).c_str());
  if (game::is_terminal(board)) {
    std::printf("  terminal: mover nets %d\n",
                game::terminal_reward(board));
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
  if (with_line) {
    std::printf("  optimal line:\n");
    for (const std::string& ply : ra::optimal_line(source, board, 16)) {
      std::printf("    %s\n", ply.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Awari endgame oracle: values and best moves from a built or "
      "file-served database.");
  cli.flag("db", "", "serve from this database file instead of building");
  cli.flag("budget-kb", "0",
           "block-cache budget for --db serving (0 = unlimited)");
  cli.flag("level", "8", "build levels 0..n when no --db is given");
  cli.flag("line", "false", "also print the optimal line");
  cli.parse(argc, argv);

  db::Database database;
  std::unique_ptr<serve::DatabaseSource> dense;
  std::unique_ptr<serve::QueryService> service;
  serve::ValueSource* source = nullptr;
  if (const std::string path = cli.str("db"); !path.empty()) {
    serve::QueryServiceConfig config;
    config.budget_bytes =
        static_cast<std::uint64_t>(cli.integer("budget-kb")) * 1024;
    auto opened = serve::QueryService::open(path, config);
    if (!opened.ok) {
      std::fprintf(stderr, "cannot serve %s: %s\n", path.c_str(),
                   opened.error.c_str());
      return 1;
    }
    service = std::move(opened.service);
    source = service.get();
  } else {
    database = ra::build_database(game::AwariFamily{},
                                  static_cast<int>(cli.integer("level")));
    dense = std::make_unique<serve::DatabaseSource>(database);
    source = dense.get();
  }

  if (!cli.positional().empty()) {
    for (const std::string& text : cli.positional()) {
      answer(*source, game::board_from_string(text.c_str()),
             cli.boolean("line"));
    }
    return 0;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    answer(*source, game::board_from_string(line.c_str()),
           cli.boolean("line"));
  }
  return 0;
}
