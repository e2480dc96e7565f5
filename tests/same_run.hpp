// Whole-run identity checks shared by the driver, thread-count and
// simulated-build tests: two builds are the same run when their
// databases, per-level rounds, per-rank EngineStats (messages and payload
// included) and per-rank WorkMeter counts are all equal.
#pragma once

#include <cstddef>

#include <gtest/gtest.h>

#include "retra/msg/work_meter.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/para/rank_engine.hpp"

namespace retra::para {

inline void expect_same_stats(const EngineStats& a, const EngineStats& b,
                              int level, int rank) {
  EXPECT_EQ(a.updates_remote, b.updates_remote) << level << "/" << rank;
  EXPECT_EQ(a.updates_local, b.updates_local) << level << "/" << rank;
  EXPECT_EQ(a.lookups_remote, b.lookups_remote) << level << "/" << rank;
  EXPECT_EQ(a.lookups_local, b.lookups_local) << level << "/" << rank;
  EXPECT_EQ(a.replies_sent, b.replies_sent) << level << "/" << rank;
  EXPECT_EQ(a.assignments, b.assignments) << level << "/" << rank;
  EXPECT_EQ(a.zero_filled, b.zero_filled) << level << "/" << rank;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << level << "/" << rank;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << level << "/" << rank;
}

inline void expect_same_run(const ParallelResult& got,
                            const ParallelResult& expect) {
  EXPECT_EQ(got.database->gather(), expect.database->gather());
  ASSERT_EQ(got.levels.size(), expect.levels.size());
  for (std::size_t l = 0; l < expect.levels.size(); ++l) {
    EXPECT_EQ(got.levels[l].rounds, expect.levels[l].rounds)
        << "level " << expect.levels[l].level;
    ASSERT_EQ(got.levels[l].per_rank.size(),
              expect.levels[l].per_rank.size());
    for (std::size_t r = 0; r < expect.levels[l].per_rank.size(); ++r) {
      expect_same_stats(got.levels[l].per_rank[r],
                        expect.levels[l].per_rank[r],
                        expect.levels[l].level, static_cast<int>(r));
      for (std::size_t k = 0; k < msg::kWorkKinds; ++k) {
        EXPECT_EQ(got.levels[l].work_per_rank[r].counts[k],
                  expect.levels[l].work_per_rank[r].counts[k])
            << "level " << expect.levels[l].level << " rank " << r
            << " kind " << k;
      }
    }
  }
}

}  // namespace retra::para
