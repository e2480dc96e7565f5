#include "retra/game/awari.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::game {

using support::to_size;

namespace {

/// Sows the stones of `pit` counter-clockwise, skipping the origin on every
/// lap.  Returns the pit that received the last stone.  The origin is always
/// empty afterwards.
int sow(Board& board, int pit) {
  const int stones = board[to_size(pit)];
  RETRA_DCHECK(stones > 0);
  board[to_size(pit)] = 0;
  int pos = pit;
  for (int s = 0; s < stones; ++s) {
    pos = (pos + 1) % kPits;
    if (pos == pit) pos = (pos + 1) % kPits;
    board[to_size(pos)] =
        static_cast<std::uint8_t>(board[to_size(pos)] + 1);
  }
  return pos;
}

int row_sum(const Board& board, int first) {
  int sum = 0;
  for (int i = first; i < first + 6; ++i) sum += board[to_size(i)];
  return sum;
}

}  // namespace

AppliedMove apply_move(const Board& board, int pit) {
  AppliedMove result;
  if (pit < 0 || pit >= 6 || board[to_size(pit)] == 0) return result;

  const bool opponent_starving = row_sum(board, 6) == 0;

  Board b = board;
  const int last = sow(b, pit);

  // Capture: walk backwards from the last-sown pit through the opponent's
  // row while the pits hold 2 or 3 stones.  A chain that would take the
  // whole row is a grand slam: the move stands, the capture is forfeited.
  int captured = 0;
  if (last >= 6) {
    int chain_sum = 0;
    int k = last;
    while (k >= 6 && (b[to_size(k)] == 2 || b[to_size(k)] == 3)) {
      chain_sum += b[to_size(k)];
      --k;
    }
    if (chain_sum > 0 && chain_sum < row_sum(b, 6)) {
      for (int j = k + 1; j <= last; ++j) b[to_size(j)] = 0;
      captured = chain_sum;
    }
  }

  // Must feed: when the opponent started with nothing, only moves that
  // leave them something are legal.  (If no move feeds, the position is
  // terminal and has no legal moves at all.)
  if (opponent_starving && row_sum(b, 6) == 0) return result;

  result.legal = true;
  result.captured = captured;
  for (int i = 0; i < kPits; ++i) {
    result.after[to_size(i)] = b[to_size((i + 6) % kPits)];
  }
  return result;
}

MoveList legal_moves(const Board& board) {
  MoveList list;
  for (int pit = 0; pit < 6; ++pit) {
    AppliedMove m = apply_move(board, pit);
    if (!m.legal) continue;
    list.items[list.count++] = {pit, m.captured, m.after};
  }
  return list;
}

bool is_terminal(const Board& board) {
  if (row_sum(board, 0) == 0) return true;
  return legal_moves(board).count == 0;
}

int terminal_reward(const Board& board) {
  const int total = idx::stones_on(board);
  if (row_sum(board, 0) == 0) {
    // No move at all: the opponent sweeps the board.
    return -total;
  }
  // The mover has stones but cannot feed a starving opponent: the mover
  // sweeps the board.
  RETRA_DCHECK(legal_moves(board).count == 0);
  return total;
}

void predecessors(const Board& board, std::vector<Board>& out) {
  out.clear();
  // Reverse sowing yields candidates that sow forward into exactly `board`
  // (the sow skips the origin on every lap, as the reverse walk does), so
  // a candidate fails apply_move only on the two rules that look past the
  // sow itself:
  //   * must feed: the previous mover's opponent is the mover of `board`,
  //     whose pits 0–5 are the opponent row after the move.  If they are
  //     all empty they were empty before it too (sowing only adds stones),
  //     so every candidate started starving and failed to feed: `board`
  //     has no predecessor at all;
  //   * capture: the last stone landed in the opponent's row and the chain
  //     of 2s and 3s ending there is a real capture, i.e. not a grand slam
  //     taking the whole row, which is forfeited and leaves the board as
  //     sown.
  // tests/test_awari_unmoves.cpp keeps the apply_move-verified enumeration
  // as the oracle this must match, board for board and in order.
  const int opponent_row = row_sum(board, 0);
  if (opponent_row == 0) return;
  // View the board from the previous mover's side: their pits are 6–11 of
  // `board`, i.e. the un-rotated post-move board.
  Board pp;
  for (int i = 0; i < kPits; ++i) {
    pp[to_size(i)] = board[to_size((i + 6) % kPits)];
  }
  const int total = idx::stones_on(board);
  // Whether a sow ending in opponent pit `last` captures.  Only `pp`
  // matters: the sown board before any capture is `pp` itself.
  auto captures = [&](int last) {
    int chain_sum = 0;
    for (int k = last; k >= 6 && (pp[to_size(k)] == 2 || pp[to_size(k)] == 3);
         --k) {
      chain_sum += pp[to_size(k)];
    }
    return chain_sum > 0 && chain_sum < opponent_row;
  };

  for (int origin = 0; origin < 6; ++origin) {
    // After sowing, the origin pit is always empty.
    if (pp[to_size(origin)] != 0) continue;
    // Grow the sowing length one stone at a time; stone L lands in `pos`.
    // A pit can only have received as many stones as it now holds, and
    // sown counts grow monotonically with L, so the first violation kills
    // every longer sowing from this origin too.
    Board sown{};
    int pos = origin;
    for (int length = 1; length <= total; ++length) {
      pos = (pos + 1) % kPits;
      if (pos == origin) pos = (pos + 1) % kPits;
      sown[to_size(pos)] = static_cast<std::uint8_t>(sown[to_size(pos)] + 1);
      if (sown[to_size(pos)] > pp[to_size(pos)]) break;
      if (pos >= 6 && captures(pos)) continue;

      Board& candidate = out.emplace_back();
      for (int i = 0; i < kPits; ++i) {
        candidate[to_size(i)] =
            static_cast<std::uint8_t>(pp[to_size(i)] - sown[to_size(i)]);
      }
      candidate[to_size(origin)] = static_cast<std::uint8_t>(length);
    }
  }
}

Board board_from_string(const char* text) {
  Board board{};
  const char* p = text;
  for (int i = 0; i < kPits; ++i) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    RETRA_CHECK_MSG(end != p && v >= 0 && v < 256, "malformed board string");
    board[to_size(i)] = static_cast<std::uint8_t>(v);
    p = end;
  }
  return board;
}

std::string board_to_string(const Board& board) {
  std::string out = "[";
  for (int i = 0; i < kPits; ++i) {
    if (i == 6) out += "| ";
    out += std::to_string(static_cast<int>(board[to_size(i)]));
    out += i + 1 < kPits ? " " : "]";
  }
  return out;
}

}  // namespace retra::game
