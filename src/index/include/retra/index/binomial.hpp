// Binomial coefficient tables.
//
// Retrograde analysis indexes the n-stone level of awari through the
// combinatorial number system; every rank/unrank operation is a handful of
// table lookups.  The table is a constexpr inline variable so the lookups
// inline into the scan kernels instead of crossing a translation-unit
// boundary per position.
#pragma once

#include <cstdint>

#include "retra/support/check.hpp"

namespace retra::idx {

/// Largest n for which binomial(n, k) is tabulated.  Covers boards with up
/// to kMaxN − 12 stones, far beyond anything this library computes.
inline constexpr int kMaxN = 80;
/// Largest k tabulated (we only ever need k ≤ 12 + 1).
inline constexpr int kMaxK = 14;

namespace detail {

struct BinomialTable {
  // at[n][k] for 0 <= n <= kMaxN, 0 <= k <= kMaxK.
  std::uint64_t at[kMaxN + 1][kMaxK + 1];
};

constexpr BinomialTable make_binomial_table() {
  BinomialTable t{};
  for (int n = 0; n <= kMaxN; ++n) {
    t.at[n][0] = 1;
    for (int k = 1; k <= kMaxK; ++k) {
      if (k > n) {
        t.at[n][k] = 0;
      } else if (k == n) {
        t.at[n][k] = 1;
      } else {
        t.at[n][k] = t.at[n - 1][k - 1] + t.at[n - 1][k];
      }
    }
  }
  return t;
}

inline constexpr BinomialTable kBinomial = make_binomial_table();

struct BinomialColumns {
  // at[d][j] = C(j + d, d) for j + d <= kMaxN (0 beyond): one contiguous
  // row per d, the order in which the board-index kernels read them.
  std::uint64_t at[kMaxK + 1][kMaxN + 1];
};

constexpr BinomialColumns make_binomial_columns() {
  BinomialColumns t{};
  for (int d = 0; d <= kMaxK; ++d) {
    for (int j = 0; j + d <= kMaxN; ++j) t.at[d][j] = kBinomial.at[j + d][d];
  }
  return t;
}

inline constexpr BinomialColumns kBinomialColumns = make_binomial_columns();

}  // namespace detail

/// Row d of the transposed table: column(d)[j] == C(j + d, d).  Unchecked;
/// callers bound j + d <= kMaxN once up front instead of per read.
constexpr const std::uint64_t* binomial_column(int d) {
  return detail::kBinomialColumns.at[d];
}

/// C(n, k); 0 outside the valid triangle (including negative arguments),
/// which lets the ranking formulas avoid edge-case branches.
constexpr std::uint64_t binomial(int n, int k) {
  if (k < 0 || n < 0 || k > n) return 0;
  RETRA_CHECK_MSG(n <= kMaxN && k <= kMaxK, "binomial table exceeded");
  return detail::kBinomial.at[n][k];
}

}  // namespace retra::idx
