// The unified query interface over solved databases.
//
// Everything that *uses* a finished database — the oracle, self-play,
// the serving tools — talks to a ValueSource instead of a concrete
// storage class, so the same query code runs against the dense in-memory
// Database, the 2–4× smaller bit-packed CompactDatabase, or an on-disk
// RTRADB file whose blocks are read in on demand (QueryService).
// Lookups are not const: file-backed sources mutate cache state while
// answering.
//
// Batching matters at serving scale: values() answers a whole span of
// same-level indices in one virtual call, which is one residency check
// and one metrics publish instead of per-lookup overhead.
#pragma once

#include <span>
#include <vector>

#include "retra/db/compact.hpp"
#include "retra/db/database.hpp"
#include "retra/index/board_index.hpp"

namespace retra::serve {

using db::Value;

class ValueSource {
 public:
  virtual ~ValueSource() = default;

  /// Stored levels are contiguous from 0, mirroring db::Database.
  virtual int num_levels() const = 0;
  bool covers(int level) const { return level >= 0 && level < num_levels(); }

  /// Number of positions in a covered level.
  virtual std::uint64_t level_size(int level) const = 0;

  /// Value of one position; aborts if the level is not covered.
  virtual Value value(int level, idx::Index index) = 0;

  /// Batched lookup: out[i] = value(level, indices[i]).  `out` must be at
  /// least as long as `indices`.  The default loops over value(); backends
  /// with per-call overhead (residency checks, metrics) override it.
  virtual void values(int level, std::span<const idx::Index> indices,
                      std::span<Value> out);

  /// Materialises a whole level as a dense vector (DTC tables,
  /// verification sweeps) by unpacking through the batched API.
  std::vector<Value> level_values(int level);
};

/// Adapter over the dense in-memory db::Database.  This is the ONLY way
/// engine-side code reaches a Database's values for querying: ra::oracle
/// takes ValueSource&, so wrap the database at the call site.
class DatabaseSource final : public ValueSource {
 public:
  explicit DatabaseSource(const db::Database& database)
      : database_(&database) {}

  int num_levels() const override { return database_->num_levels(); }
  std::uint64_t level_size(int level) const override {
    return database_->level(level).size();
  }
  Value value(int level, idx::Index index) override {
    return database_->value(level, index);
  }
  void values(int level, std::span<const idx::Index> indices,
              std::span<Value> out) override;

 private:
  const db::Database* database_;
};

/// Adapter over the bit-packed db::CompactDatabase.
class CompactSource final : public ValueSource {
 public:
  explicit CompactSource(const db::CompactDatabase& database)
      : database_(&database) {}

  int num_levels() const override { return database_->num_levels(); }
  std::uint64_t level_size(int level) const override {
    return database_->level(level).size();
  }
  Value value(int level, idx::Index index) override {
    return database_->value(level, index);
  }
  void values(int level, std::span<const idx::Index> indices,
              std::span<Value> out) override;

 private:
  const db::CompactDatabase* database_;
};

}  // namespace retra::serve
