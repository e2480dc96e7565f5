// The retrograde step lives or dies on move/unmove duality: the multiset of
// predecessor edges reported by predecessors() must be exactly the inverse
// of the multiset of same-level (non-capturing) forward edges.  These tests
// verify that exhaustively for every position of the small levels.  The
// oracle below enumerates reverse sowings and forward-verifies each one
// with apply_move; predecessors() must yield exactly its boards in exactly
// its order, because that order fixes the engines' update record stream.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "retra/game/awari.hpp"
#include "retra/index/board_index.hpp"
#include "retra/support/numeric.hpp"

namespace retra::game {
namespace {

/// Every reverse sowing of `board`, origin-major and length-minor, kept
/// when a full apply_move re-sow reaches `board` without a capture.
void oracle_predecessors(const Board& board, std::vector<Board>& out) {
  using support::to_size;
  out.clear();
  Board pp;
  for (int i = 0; i < idx::kPits; ++i) {
    pp[to_size(i)] = board[to_size((i + 6) % idx::kPits)];
  }
  const int total = idx::stones_on(board);
  for (int origin = 0; origin < 6; ++origin) {
    if (pp[to_size(origin)] != 0) continue;
    Board sown{};
    int pos = origin;
    for (int length = 1; length <= total; ++length) {
      pos = (pos + 1) % idx::kPits;
      if (pos == origin) pos = (pos + 1) % idx::kPits;
      sown[to_size(pos)] = static_cast<std::uint8_t>(sown[to_size(pos)] + 1);
      if (sown[to_size(pos)] > pp[to_size(pos)]) break;
      Board candidate;
      for (int i = 0; i < idx::kPits; ++i) {
        candidate[to_size(i)] =
            static_cast<std::uint8_t>(pp[to_size(i)] - sown[to_size(i)]);
      }
      candidate[to_size(origin)] = static_cast<std::uint8_t>(length);
      const AppliedMove forward = apply_move(candidate, origin);
      if (forward.legal && forward.captured == 0 && forward.after == board) {
        out.push_back(candidate);
      }
    }
  }
}

class UnmoveOracle : public ::testing::TestWithParam<int> {};

TEST_P(UnmoveOracle, SameBoardsInSameOrder) {
  const int level = GetParam();
  std::vector<Board> got;
  std::vector<Board> want;
  std::uint64_t edges = 0;
  idx::for_each_board(level, [&](const Board& board, idx::Index i) {
    predecessors(board, got);
    oracle_predecessors(board, want);
    ASSERT_EQ(got, want) << "level " << level << " index " << i << " "
                         << board_to_string(board);
    edges += got.size();
  });
  if (level >= 1) {
    EXPECT_GT(edges, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, UnmoveOracle, ::testing::Range(0, 15));

using Edge = std::pair<idx::Index, idx::Index>;  // (from, to), same level

std::map<Edge, int> forward_edges(int level) {
  std::map<Edge, int> edges;
  idx::for_each_board(level, [&](const Board& board, idx::Index i) {
    for (const auto& m : legal_moves(board)) {
      if (m.captured == 0) {
        ++edges[{i, idx::rank(m.after)}];
      }
    }
  });
  return edges;
}

std::map<Edge, int> backward_edges(int level) {
  std::map<Edge, int> edges;
  std::vector<Board> preds;
  idx::for_each_board(level, [&](const Board& board, idx::Index i) {
    predecessors(board, preds);
    for (const Board& q : preds) {
      ++edges[{idx::rank(q), i}];
    }
  });
  return edges;
}

class UnmoveDuality : public ::testing::TestWithParam<int> {};

TEST_P(UnmoveDuality, PredecessorsInvertNonCaptureMoves) {
  const int level = GetParam();
  const auto forward = forward_edges(level);
  const auto backward = backward_edges(level);
  EXPECT_EQ(forward, backward) << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, UnmoveDuality,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(Unmoves, PredecessorBoardsAreSameLevelAndDistinctOrigins) {
  std::vector<Board> preds;
  idx::for_each_board(5, [&](const Board& board, idx::Index) {
    predecessors(board, preds);
    for (const Board& q : preds) {
      ASSERT_EQ(idx::stones_on(q), 5);
      ASSERT_NE(q, board);  // sowing always moves stones: no self-loops
    }
  });
}

TEST(Unmoves, KnownSimpleCase) {
  // [1 0 0 0 0 0 | 0...] (one stone in the mover's pit 0, terminal for the
  // mover).  Its predecessors must be positions where the previous mover
  // sowed a final stone into what is now pit 0 — i.e. pit 6 of the
  // predecessor's frame... enumerated by hand for level 1: the only
  // level-1 boards with a legal non-capturing move are those with the
  // stone in the previous mover's pit 5 (sowing it into pit 6 feeds the
  // starving opponent).
  const Board target = board_from_string("1 0 0 0 0 0  0 0 0 0 0 0");
  std::vector<Board> preds;
  predecessors(target, preds);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0], board_from_string("0 0 0 0 0 1  0 0 0 0 0 0"));
}

TEST(Unmoves, TerminalBoardsStillHavePredecessors) {
  // The empty board has no predecessors (no non-capturing move yields it).
  const Board empty{};
  std::vector<Board> preds;
  predecessors(empty, preds);
  EXPECT_TRUE(preds.empty());
}

TEST(Unmoves, GrandSlamSowingIsAPredecessorEdge) {
  // [2 0 0 0 0 0 | 0...] arises from [0 0 0 0 0 1 | 1 0 0 0 0 0] via the
  // forfeited grand slam in GrandSlam.ForfeitsCaptureButMoveStands.
  const Board target = board_from_string("2 0 0 0 0 0  0 0 0 0 0 0");
  std::vector<Board> preds;
  predecessors(target, preds);
  const Board slam = board_from_string("0 0 0 0 0 1  1 0 0 0 0 0");
  bool found = false;
  for (const Board& q : preds) {
    if (q == slam) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace retra::game
