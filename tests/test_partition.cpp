#include <gtest/gtest.h>

#include <vector>

#include "retra/para/partition.hpp"

namespace retra::para {
namespace {

// gtest names each instance after the raw bytes of its parameter, so the
// padding is spelled out and zeroed: implicit padding holds stack garbage
// and would give the tests a different name on every run.
struct Case {
  Case(PartitionScheme s, std::uint64_t n, int p, std::uint64_t b)
      : scheme(s), size(n), ranks(p), block(b) {}

  PartitionScheme scheme;
  std::uint32_t pad0 = 0;
  std::uint64_t size;
  int ranks;
  std::uint32_t pad1 = 0;
  std::uint64_t block;
};
static_assert(sizeof(Case) == 32, "Case must have no implicit padding");

class PartitionInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(PartitionInvariants, OwnerLocalGlobalAreConsistent) {
  const Case c = GetParam();
  const Partition partition(c.scheme, c.size, c.ranks, c.block);
  std::vector<std::uint64_t> counted(static_cast<std::size_t>(c.ranks), 0);
  for (std::uint64_t i = 0; i < c.size; ++i) {
    const int owner = partition.owner(i);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, c.ranks);
    const std::uint64_t local = partition.to_local(i);
    ASSERT_EQ(partition.to_global(owner, local), i);
    ASSERT_LT(local, partition.local_size(owner));
    ++counted[static_cast<std::size_t>(owner)];
  }
  for (int r = 0; r < c.ranks; ++r) {
    EXPECT_EQ(counted[static_cast<std::size_t>(r)], partition.local_size(r))
        << "rank " << r;
  }
}

TEST_P(PartitionInvariants, LocateMatchesOwnerAndToLocal) {
  const Case c = GetParam();
  const Partition partition(c.scheme, c.size, c.ranks, c.block);
  for (std::uint64_t i = 0; i < c.size; ++i) {
    const Partition::Location where = partition.locate(i);
    ASSERT_EQ(where.owner, partition.owner(i)) << "index " << i;
    ASSERT_EQ(where.local, partition.to_local(i)) << "index " << i;
  }
}

TEST_P(PartitionInvariants, LocalSizesSumToTotal) {
  const Case c = GetParam();
  const Partition partition(c.scheme, c.size, c.ranks, c.block);
  std::uint64_t total = 0;
  for (int r = 0; r < c.ranks; ++r) total += partition.local_size(r);
  EXPECT_EQ(total, c.size);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionInvariants,
    ::testing::Values(
        Case{PartitionScheme::kBlock, 100, 7, 1},
        Case{PartitionScheme::kBlock, 37, 1, 1},
        Case{PartitionScheme::kBlock, 1, 4, 1},
        Case{PartitionScheme::kBlock, 4096, 64, 1},
        Case{PartitionScheme::kCyclic, 100, 7, 1},
        Case{PartitionScheme::kCyclic, 37, 1, 1},
        Case{PartitionScheme::kCyclic, 3, 8, 1},
        Case{PartitionScheme::kCyclic, 4096, 64, 1},
        Case{PartitionScheme::kBlockCyclic, 100, 7, 4},
        Case{PartitionScheme::kBlockCyclic, 37, 1, 8},
        Case{PartitionScheme::kBlockCyclic, 1000, 3, 16},
        Case{PartitionScheme::kBlockCyclic, 4097, 64, 32},
        Case{PartitionScheme::kBlockCyclic, 5, 2, 64}));

TEST(Partition, BlockIsContiguous) {
  const Partition partition(PartitionScheme::kBlock, 100, 4);
  EXPECT_EQ(partition.owner(0), 0);
  EXPECT_EQ(partition.owner(24), 0);
  EXPECT_EQ(partition.owner(25), 1);
  EXPECT_EQ(partition.owner(99), 3);
}

TEST(Partition, CyclicDealsRoundRobin) {
  const Partition partition(PartitionScheme::kCyclic, 100, 4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(partition.owner(i), static_cast<int>(i % 4));
  }
}

TEST(Partition, BlockCyclicDealsBlocks) {
  const Partition partition(PartitionScheme::kBlockCyclic, 100, 2, 8);
  EXPECT_EQ(partition.owner(0), 0);
  EXPECT_EQ(partition.owner(7), 0);
  EXPECT_EQ(partition.owner(8), 1);
  EXPECT_EQ(partition.owner(15), 1);
  EXPECT_EQ(partition.owner(16), 0);
}

TEST(Partition, MoreRanksThanPositions) {
  const Partition partition(PartitionScheme::kBlock, 2, 8);
  std::uint64_t total = 0;
  for (int r = 0; r < 8; ++r) total += partition.local_size(r);
  EXPECT_EQ(total, 2u);
}

TEST(Partition, SchemeNames) {
  EXPECT_STREQ(scheme_name(PartitionScheme::kBlock), "block");
  EXPECT_STREQ(scheme_name(PartitionScheme::kCyclic), "cyclic");
  EXPECT_STREQ(scheme_name(PartitionScheme::kBlockCyclic), "block-cyclic");
}

}  // namespace
}  // namespace retra::para
