#include "retra/para/dist_db.hpp"

#include "retra/obs/metrics.hpp"
#include "retra/support/access_check.hpp"
#include "retra/support/numeric.hpp"

namespace retra::para {

using support::to_size;

void DistributedDatabase::push_level_shards(
    int level, std::uint64_t size, std::vector<std::vector<db::Value>> shards) {
  support::check_serial("dist_db.push_level_shards", level);
  RETRA_CHECK_MSG(!replicated_, "use push_level_full in replicated mode");
  RETRA_CHECK(level == num_levels());
  RETRA_CHECK(static_cast<int>(shards.size()) == ranks_);
  Partition partition = make_partition(size);
  for (int r = 0; r < ranks_; ++r) {
    RETRA_CHECK(shards[to_size(r)].size() == partition.local_size(r));
  }
  partitions_.push_back(partition);
  for (int r = 0; r < ranks_; ++r) {
    stores_[to_size(r)]->push_shard(std::move(shards[to_size(r)]));
  }
}

void DistributedDatabase::push_level_full(
    int level, std::vector<std::vector<db::Value>> per_rank_full) {
  support::check_serial("dist_db.push_level_full", level);
  RETRA_CHECK_MSG(replicated_, "use push_level_shards in partitioned mode");
  RETRA_CHECK(level == num_levels());
  RETRA_CHECK(static_cast<int>(per_rank_full.size()) == ranks_);
  const std::uint64_t size = per_rank_full.front().size();
  for (const auto& copy : per_rank_full) {
    RETRA_CHECK_MSG(copy.size() == size, "replica size mismatch");
  }
  partitions_.push_back(make_partition(size));
  for (int r = 0; r < ranks_; ++r) {
    LevelStore& store = *stores_[to_size(r)];
    if (store.building()) store.discard_build();
    store.push_shard(std::move(per_rank_full[to_size(r)]));
  }
}

void DistributedDatabase::seal_level_from_builds(int level,
                                                 std::uint64_t size) {
  support::check_serial("dist_db.seal_level_from_builds", level);
  RETRA_CHECK_MSG(!replicated_, "use push_level_full in replicated mode");
  RETRA_CHECK(level == num_levels());
  Partition partition = make_partition(size);
  for (int r = 0; r < ranks_; ++r) {
    RETRA_CHECK_MSG(
        stores_[to_size(r)]->build().values.size() == partition.local_size(r),
        "active build does not match the level partition");
  }
  partitions_.push_back(partition);
  for (int r = 0; r < ranks_; ++r) {
    stores_[to_size(r)]->seal_build();
  }
}

db::Value DistributedDatabase::value_local(int rank, int level,
                                           idx::Index global) const {
  const Partition::Location where = locate(rank, level, global);
  RETRA_CHECK_MSG(where.owner == rank,
                  "partitioned lower-level read from a non-owner rank");
  db::Value value;
  values_local(rank, level, {&where.local, 1}, {&value, 1});
  return value;
}

void DistributedDatabase::values_local(int rank, int level,
                                       std::span<const std::uint64_t> locals,
                                       std::span<db::Value> out) const {
  support::check_owned(rank, "dist_db.value_local", level);
  RETRA_CHECK(level >= 0 && level < num_levels());
  RETRA_CHECK(locals.size() == out.size());
  RETRA_OBS_ADD(obs::Id::kDistDbLocalReads, locals.size());
  stores_[to_size(rank)]->values(level, locals, out);
}

db::Database DistributedDatabase::gather() const {
  db::Database database;
  for (int level = 0; level < num_levels(); ++level) {
    const Partition& partition = partitions_[to_size(level)];
    if (replicated_) {
      std::vector<db::Value> values;
      stores_[0]->visit_shard(level, [&values](std::span<const db::Value> v) {
        values.assign(v.begin(), v.end());
      });
      database.push_level(level, std::move(values));
      continue;
    }
    std::vector<db::Value> values(partition.size());
    for (int r = 0; r < ranks_; ++r) {
      stores_[to_size(r)]->visit_shard(
          level, [&](std::span<const db::Value> shard) {
            for (std::uint64_t local = 0; local < shard.size(); ++local) {
              values[partition.to_global(r, local)] = shard[local];
            }
          });
    }
    database.push_level(level, std::move(values));
  }
  return database;
}

std::uint64_t DistributedDatabase::bytes_on_rank(int rank) const {
  return stores_[to_size(rank)]->stored_bytes();
}

std::vector<db::Value> DistributedDatabase::read_rank_shard(int level,
                                                            int rank) const {
  std::vector<db::Value> values;
  stores_[to_size(rank)]->visit_shard(
      level, [&values](std::span<const db::Value> shard) {
        values.assign(shard.begin(), shard.end());
      });
  return values;
}

}  // namespace retra::para
