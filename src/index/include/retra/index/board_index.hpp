// Perfect indexing of awari boards.
//
// A level groups all boards with the same total number of stones; the
// n-stone level contains C(n + 11, 11) boards.  Within a level, boards are
// ranked lexicographically on (pit 0, pit 1, …, pit 11) through the
// combinatorial number system, giving a dense, gap-free index — exactly what
// the retrograde-analysis value arrays are addressed by.
//
// Everything here is inline: rank/unrank/next_board are the innermost
// kernels of every scan, and the binomial lookups must fold into the
// callers' loops rather than cross a translation-unit boundary per
// position.
#pragma once

#include <array>
#include <cstdint>

#include "retra/index/binomial.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::idx {

/// Number of pits on an awari board.  Pits 0–5 belong to the player to
/// move, 6–11 to the opponent; positions are always normalised to the
/// player to move.
inline constexpr int kPits = 12;

/// Dense rank of a board within its level.
using Index = std::uint64_t;

/// Pit occupancy vector.  uint8_t per pit: a pit can hold at most all the
/// stones of its level, and the library tops out far below 255 stones.
using Board = std::array<std::uint8_t, kPits>;

/// Total stones on the board (== the board's level).
inline int stones_on(const Board& board) {
  int sum = 0;
  for (const auto pit : board) sum += pit;
  return sum;
}

/// Number of boards in the n-stone level: C(n + 11, 11).
inline std::uint64_t level_size(int stones) {
  RETRA_CHECK(stones >= 0);
  return binomial(stones + kPits - 1, kPits - 1);
}

/// Number of boards in all levels 0..n inclusive: C(n + 12, 12).
inline std::uint64_t cumulative_size(int stones) {
  RETRA_CHECK(stones >= 0);
  return binomial(stones + kPits, kPits);
}

/// Rank of `board` within its level given its known stone total; inverse of
/// unrank().  The stone count is the level every caller already knows, so
/// the hot paths skip the stones_on() sweep rank() would redo.
inline Index rank_in_level(int stones, const Board& board) {
  // Lexicographic rank on (pit 0, …, pit 11) via the combinatorial number
  // system.  With r stones still unplaced at pit i, the boards whose pit i
  // holds fewer than b_i stones number
  //   C(r + 11 − i, 11 − i) − C(r − b_i + 11 − i, 11 − i)
  // (a telescoped hockey-stick sum), so the rank is 11 pairs of table
  // lookups.  Pit 11 is determined by the rest and contributes nothing.
  // Every read is C(j + d, d) with j <= stones and d <= 11, so one bound
  // check covers them all.
  RETRA_CHECK_MSG(stones >= 0 && stones + kPits - 1 <= kMaxN,
                  "binomial table exceeded");
  Index index = 0;
  int remaining = stones;
  for (int i = 0; i + 1 < kPits; ++i) {
    const std::uint64_t* column = binomial_column(kPits - 1 - i);
    const int pit = board[support::to_size(i)];
    RETRA_DCHECK(pit <= remaining);
    index += column[remaining] - column[remaining - pit];
    remaining -= pit;
  }
  return index;
}

/// Rank of `board` within its level; inverse of unrank().
inline Index rank(const Board& board) {
  return rank_in_level(stones_on(board), board);
}

/// The board of the given level with the given rank.
inline Board unrank(int stones, Index index) {
  // Same single bound as rank_in_level: every block below is
  // C(j + d − 1, d − 1) with j <= stones and d <= 11.
  RETRA_CHECK_MSG(stones >= 0 && stones + kPits - 1 <= kMaxN,
                  "binomial table exceeded");
  RETRA_CHECK(index < binomial_column(kPits - 1)[stones]);
  Board board{};
  int remaining = stones;
  for (int i = 0; i + 1 < kPits; ++i) {
    const std::uint64_t* column = binomial_column(kPits - 2 - i);
    // Walk pit values upward, peeling off the block of boards whose pit i
    // holds v stones: C(remaining − v + d − 1, d − 1) boards each, with
    // d = 11 − i pits after pit i.
    int v = 0;
    while (index >= column[remaining - v]) {
      index -= column[remaining - v];
      ++v;
      RETRA_DCHECK(v <= remaining);
    }
    board[support::to_size(i)] = static_cast<std::uint8_t>(v);
    remaining -= v;
  }
  board[support::to_size(kPits - 1)] = static_cast<std::uint8_t>(remaining);
  return board;
}

/// First board of the level in rank order: all stones in pit 11.
inline Board first_board(int stones) {
  RETRA_CHECK(stones >= 0 && stones < 256);
  Board board{};
  board[support::to_size(kPits - 1)] = static_cast<std::uint8_t>(stones);
  return board;
}

/// In-place advance of `board` to the next board of the same level in rank
/// order.  Returns false (leaving the board at the level's first element)
/// when called on the last board.  Enumerating with next_board() is much
/// faster than unranking successive indices.
inline bool next_board(Board& board) {
  // Lexicographic successor of a fixed-sum composition: increment the
  // rightmost pit j that has at least one stone somewhere to its right, and
  // push everything after j into the last pit.
  int tail = board[support::to_size(kPits - 1)];
  for (int j = kPits - 2; j >= 0; --j) {
    if (tail > 0) {
      board[support::to_size(j)] =
          static_cast<std::uint8_t>(board[support::to_size(j)] + 1);
      for (int k = j + 1; k + 1 < kPits; ++k) board[support::to_size(k)] = 0;
      board[support::to_size(kPits - 1)] = static_cast<std::uint8_t>(tail - 1);
      return true;
    }
    tail += board[support::to_size(j)];
  }
  // The board was the last of its level; wrap to the first.
  const int stones = tail;
  board = first_board(stones);
  return false;
}

/// Calls fn(board, index) for every board of the level, in rank order.
template <typename Fn>
void for_each_board(int stones, Fn&& fn) {
  Board board = first_board(stones);
  const std::uint64_t size = level_size(stones);
  for (std::uint64_t i = 0; i < size; ++i) {
    fn(static_cast<const Board&>(board), static_cast<Index>(i));
    if (i + 1 < size) next_board(board);
  }
}

/// Incremental cursor over one level's boards for callers that visit
/// monotonically increasing (but not necessarily consecutive) indices —
/// exactly what a rank's local scan does under every partition scheme.
/// seek() bridges small forward gaps with next_board() steps (a few adds
/// per step) and falls back to a full unrank() only for long jumps, so a
/// cyclic partition with stride P costs P cheap steps per position instead
/// of one expensive unrank.
class LevelWalker {
 public:
  explicit LevelWalker(int stones)
      : stones_(stones), index_(0), board_(first_board(stones)) {}

  /// Forward gap (in ranks) up to which seek() steps with next_board()
  /// instead of unranking.  One unrank costs on the order of `stones`
  /// table probes per pit; 64 successor steps stay comfortably below that
  /// while covering every realistic rank-count stride.
  static constexpr Index kStepLimit = 64;

  int stones() const { return stones_; }
  Index index() const { return index_; }

  /// The board with rank `target` in this walker's level.  The reference
  /// stays valid until the next seek().
  const Board& seek(Index target) {
    if (target != index_) {
      if (target > index_ && target - index_ <= kStepLimit) {
        for (Index i = index_; i < target; ++i) next_board(board_);
      } else {
        board_ = unrank(stones_, target);
      }
      index_ = target;
    }
    return board_;
  }

 private:
  int stones_;
  Index index_;
  Board board_;
};

}  // namespace retra::idx
