// Self-play validation: the database-backed perfect player against a
// greedy heuristic (maximise immediate capture), from random starting
// positions.  The perfect player's realised net result must never fall
// short of the database value of the starting position — a full
// end-to-end audit of rules, indexing and solver through actual play.
//
// The perfect player queries through serve::ValueSource, so the same
// audit runs against an in-memory build or a file-backed database served
// under a residency budget:
//
//   $ selfplay --level=8 --games=200
//   $ selfplay --db=/tmp/awari8.db --budget-kb=64 --games=200
#include <cstdio>
#include <memory>

#include "retra/game/awari_level.hpp"
#include "retra/ra/builder.hpp"
#include "retra/ra/oracle.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/cli.hpp"
#include "retra/support/rng.hpp"
#include "retra/support/table.hpp"

namespace {

using namespace retra;

game::Board random_board(int stones, support::Xoshiro256& rng) {
  game::Board board{};
  for (int s = 0; s < stones; ++s) {
    const auto pit = static_cast<std::size_t>(rng.below(game::kPits));
    board[pit] = static_cast<std::uint8_t>(board[pit] + 1);
  }
  return board;
}

/// Greedy opponent: taking the largest immediate capture, ties by pit.
int greedy_pick(const game::MoveList& moves) {
  int best = 0;
  for (int i = 1; i < moves.count; ++i) {
    if (moves.items[i].captured > moves.items[best].captured) best = i;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Self-play audit: the database-perfect player (via any ValueSource "
      "backend) against a greedy-capture heuristic.");
  cli.flag("level", "8", "stones on the board at the start");
  cli.flag("games", "200", "games per pairing");
  cli.flag("max-plies", "200", "cut cycling games off after this many plies");
  cli.flag("seed", "7", "random seed for starting positions");
  cli.flag("db", "", "serve from this database file instead of building");
  cli.flag("budget-kb", "0",
           "block-cache budget for --db serving (0 = unlimited)");
  cli.parse(argc, argv);
  int level = static_cast<int>(cli.integer("level"));
  const int games = static_cast<int>(cli.integer("games"));
  const int max_plies = static_cast<int>(cli.integer("max-plies"));

  // Pick the backend: a budgeted file-backed QueryService with --db, a
  // freshly built in-memory database otherwise.
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
    if (!service->covers(level)) {
      level = service->num_levels() - 1;
      std::fprintf(stderr, "database covers up to %d stones; using that\n",
                   level);
    }
    source = service.get();
  } else {
    database = ra::build_database(game::AwariFamily{}, level);
    dense = std::make_unique<serve::DatabaseSource>(database);
    source = dense.get();
  }
  support::Xoshiro256 rng(static_cast<std::uint64_t>(cli.integer("seed")));

  std::printf(
      "selfplay: database-perfect player vs greedy-capture heuristic, "
      "%d random %d-stone starts\n\n",
      games, level);

  int perfect_wins = 0, draws = 0, perfect_losses = 0;
  int value_violations = 0;
  for (int g = 0; g < games; ++g) {
    game::Board board = random_board(level, rng);
    const db::Value predicted = ra::position_value(*source, board);

    // The perfect player moves on even plies (it is "the player to move"
    // at the start); net counts stones from the perfect player's view.
    int net = 0;
    int sign = +1;  // +1 while the perfect player is to move
    bool ended = false;
    for (int ply = 0; ply < max_plies; ++ply) {
      if (game::is_terminal(board)) {
        net += sign * game::terminal_reward(board);
        ended = true;
        break;
      }
      if (sign > 0) {
        const auto evals = ra::evaluate_moves(*source, board);
        net += sign * evals.front().captured;
        board = evals.front().after;
      } else {
        const game::MoveList moves = game::legal_moves(board);
        const auto& move = moves.items[greedy_pick(moves)];
        net += sign * move.captured;
        board = move.after;
      }
      sign = -sign;
    }
    // Cycling games are cut off; the invariant
    //   net-so-far + sign * v(current) >= predicted
    // holds after every ply of optimal play, so settle the residual from
    // the database when the game did not finish.
    if (!ended) {
      net += sign * ra::position_value(*source, board);
    }

    if (net > 0) {
      ++perfect_wins;
    } else if (net == 0) {
      ++draws;
    } else {
      ++perfect_losses;
    }
    // Optimal play guarantees at least the database value even against
    // any opponent; cycled games (cut off) count their captures so far,
    // which also cannot fall below the guarantee on the capture side.
    if (net < predicted) ++value_violations;
  }

  support::Table table({"result", "games"});
  table.row().add("perfect player ahead").add(std::int64_t{perfect_wins});
  table.row().add("even").add(std::int64_t{draws});
  table.row().add("perfect player behind").add(std::int64_t{perfect_losses});
  table.print();
  std::printf(
      "\n(\"behind\" games start from positions whose database value is "
      "already negative: perfection limits the damage, it cannot erase "
      "it)\n");

  if (service) {
    const serve::QueryService::Stats stats = service->stats();
    std::printf(
        "\nserving: %llu lookups, %llu block faults, %llu evictions, "
        "%llu bytes resident\n",
        static_cast<unsigned long long>(stats.lookups),
        static_cast<unsigned long long>(stats.faults),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(stats.resident_bytes));
  }

  std::printf(
      "\nrealised result fell below the database guarantee in %d/%d games "
      "(must be 0)\n",
      value_violations, games);
  return value_violations == 0 ? 0 : 1;
}
