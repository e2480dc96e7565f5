// Per-rank level storage behind one interface: in-memory or out-of-core.
//
// A LevelStore owns everything one rank keeps per level: the completed
// shards of already-solved levels and the value/best/cnt arrays of the
// level under construction (BuildArrays).  RankEngine builds *into* the
// store and the store decides where bytes live:
//
//   MemoryLevelStore   today's behaviour — completed shards stay dense
//                      vectors.  Zero-copy: sealing a build moves the
//                      value vector, lookups are a plain gather.
//   FileLevelStore     the out-of-core backend.  Sealing a build writes
//                      the shard to a per-(rank, level) RTRADB03 file in
//                      the scratch directory (db::save — the same block
//                      codec as persisted databases) and frees the RAM.
//                      Lower-level lookups, batched in ascending order
//                      by the engine, read each block back once per run
//                      through serve::FileSource into one
//                      serve::BlockCache — the same LRU the query
//                      service uses — which keeps decoded resident bytes
//                      under the per-rank working-set budget and still
//                      serves a block larger than the whole budget, so a
//                      tiny budget degrades to thrashing, never to wrong
//                      answers.
//
// Budget semantics: the working-set budget governs *completed-level*
// residency.  The in-progress BuildArrays and the message/combiner state
// are pinned — paging the arrays the hot loops scribble on would destroy
// the bit-identity guarantee — but their size is reported so the T4
// accounting stays honest.  The other unbounded in-progress structure,
// the drain queue, is bounded separately by SpillQueue below.
//
// Thread safety: FileLevelStore lookups mutate residency, and the chunk
// parallel Init scan reads lower levels from worker threads, so the file
// backend is internally locked (values() only, one lock per run of
// same-block positions; see the annotations).
// MemoryLevelStore lookups are plain const reads and need no lock.
// Everything else — begin/seal/discard, push_shard, visit_shard, stats —
// is serial-phase only, called between supersteps on the build thread.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "retra/db/database.hpp"
#include "retra/serve/block_cache.hpp"
#include "retra/serve/file_source.hpp"
#include "retra/support/check.hpp"
#include "retra/support/numeric.hpp"
#include "retra/support/sync.hpp"
#include "retra/support/thread_annotations.hpp"

namespace retra::para {

/// Which LevelStore backend a build uses and how it is tuned.
struct StoreConfig {
  /// Per-rank working-set budget in bytes for completed-level residency;
  /// 0 selects the in-memory backend (everything resident, no scratch
  /// files).  Any nonzero value selects the file-backed backend.
  std::uint64_t working_set_bytes = 0;
  /// Scratch directory for spilled levels and queue run files; required
  /// when working_set_bytes > 0.  Created on demand; one build per
  /// directory.
  std::string scratch_dir;
  /// Positions per RTRADB03 block of spilled levels — the fault-in
  /// granularity.  Must be even and at most db::kMaxBlockPositions.
  std::uint32_t block_positions = db::kDefaultBlockPositions;
  /// Queued drain entries kept in RAM per rank before the tail spills to
  /// a run file, and the segment size when replaying one (out-of-core
  /// builds only).
  std::uint64_t queue_mem_entries = 1u << 16;

  bool out_of_core() const { return working_set_bytes > 0; }
};

/// Counters of one store (mirrored per rank into LevelRunInfo and the
/// engine.store.* metrics; see docs/METRICS.md).
struct StoreStats {
  std::uint64_t levels_spilled = 0;   // shards written to scratch files
  std::uint64_t spill_bytes = 0;      // stored (compressed) bytes written
  std::uint64_t faults = 0;           // blocks decoded back on demand
  std::uint64_t fault_bytes = 0;      // decoded bytes faulted back
  std::uint64_t evictions = 0;        // blocks dropped for the budget
  std::uint64_t queue_spilled_records = 0;  // drain entries written to runs
  std::uint64_t resident_bytes = 0;       // decoded bytes resident now
  std::uint64_t peak_resident_bytes = 0;  // lifetime peak of the above

  /// Counters add; the residency gauges take the maximum (aggregating
  /// ranks reports the busiest one, which is what a per-rank budget is
  /// compared against).
  StoreStats& operator+=(const StoreStats& other) {
    levels_spilled += other.levels_spilled;
    spill_bytes += other.spill_bytes;
    faults += other.faults;
    fault_bytes += other.fault_bytes;
    evictions += other.evictions;
    queue_spilled_records += other.queue_spilled_records;
    resident_bytes = std::max(resident_bytes, other.resident_bytes);
    peak_resident_bytes =
        std::max(peak_resident_bytes, other.peak_resident_bytes);
    return *this;
  }

  /// Interval delta: counters subtract, gauges keep this (newer) value.
  StoreStats operator-(const StoreStats& base) const {
    StoreStats delta = *this;
    delta.levels_spilled -= base.levels_spilled;
    delta.spill_bytes -= base.spill_bytes;
    delta.faults -= base.faults;
    delta.fault_bytes -= base.fault_bytes;
    delta.evictions -= base.evictions;
    delta.queue_spilled_records -= base.queue_spilled_records;
    return delta;
  }
  bool operator==(const StoreStats&) const = default;
};

/// The in-progress arrays of the level under construction; owned by the
/// store, written by the engine.
struct BuildArrays {
  std::vector<db::Value> values;
  std::vector<db::Value> best;
  std::vector<std::uint16_t> cnt;
};

/// One rank's per-level storage; see the file comment for the backends.
class LevelStore {
 public:
  LevelStore() = default;
  virtual ~LevelStore() = default;
  LevelStore(const LevelStore&) = delete;
  LevelStore& operator=(const LevelStore&) = delete;

  int num_levels() const { return static_cast<int>(sizes_.size()); }
  std::uint64_t shard_size(int level) const {
    RETRA_CHECK(level >= 0 && level < num_levels());
    return sizes_[support::to_size(level)];
  }
  /// Logical value bytes of all completed shards (the T4 accounting —
  /// independent of where the backend keeps them resident).
  std::uint64_t stored_bytes() const {
    std::uint64_t values = 0;
    for (const std::uint64_t size : sizes_) values += size;
    return values * sizeof(db::Value);
  }

  /// Starts the next level's build: sizes the arrays (values to
  /// db::kUnknown, best and cnt to 0) and returns them.  Exactly one
  /// build may be active per store.
  BuildArrays& begin_build(std::uint64_t local_size) {
    RETRA_CHECK_MSG(!building_, "level build already active on this store");
    building_ = true;
    build_.values.assign(local_size, db::kUnknown);
    build_.best.assign(local_size, 0);
    build_.cnt.assign(local_size, 0);
    return build_;
  }
  bool building() const { return building_; }
  BuildArrays& build() {
    RETRA_CHECK_MSG(building_, "no active level build on this store");
    return build_;
  }

  /// Completes the active build: the value array becomes the next
  /// completed shard (spilled to scratch by the file backend) and the
  /// auxiliary arrays are freed.
  void seal_build() {
    RETRA_CHECK_MSG(building_, "no active level build to seal");
    building_ = false;
    build_.best = {};
    build_.cnt = {};
    std::vector<db::Value> values = std::move(build_.values);
    build_.values = {};
    push_shard(std::move(values));
  }

  /// Abandons the active build (replicated mode: the full copy arrives
  /// through push_shard after the exchange instead).
  void discard_build() {
    RETRA_CHECK_MSG(building_, "no active level build to discard");
    building_ = false;
    build_ = BuildArrays{};
  }

  /// Appends the next completed level's shard directly (checkpoint
  /// resume, replicated full copies).
  void push_shard(std::vector<db::Value> shard) {
    sizes_.push_back(shard.size());
    store_shard(std::move(shard));
  }

  /// Values of completed-level positions: out[i] = value at locals[i].
  /// Any order is correct; ascending order is what makes the file
  /// backend fetch each block once per run of same-block locals.  The
  /// file backend may fault blocks in; safe to call from a rank's worker
  /// threads.
  virtual void values(int level, std::span<const std::uint64_t> locals,
                      std::span<db::Value> out) const = 0;

  /// Visits the full decoded shard of a completed level (gather,
  /// checkpoint, verification).  Deliberately bypasses the working-set
  /// cache: inspecting a build must not perturb its fault/evict counters.
  using ShardVisitor = std::function<void(std::span<const db::Value>)>;
  virtual void visit_shard(int level, const ShardVisitor& fn) const = 0;

  virtual StoreStats stats() const = 0;

  /// SpillQueue accounting hook (rank thread only).
  void note_queue_spill(std::uint64_t records) { queue_spilled_ += records; }

 protected:
  virtual void store_shard(std::vector<db::Value> shard) = 0;
  std::uint64_t queue_spilled() const { return queue_spilled_; }

 private:
  std::vector<std::uint64_t> sizes_;  // completed shard sizes, by level
  BuildArrays build_;
  bool building_ = false;
  std::uint64_t queue_spilled_ = 0;
};

/// Dense in-RAM backend: completed shards are plain vectors.
class MemoryLevelStore final : public LevelStore {
 public:
  void values(int level, std::span<const std::uint64_t> locals,
              std::span<db::Value> out) const override {
    const std::vector<db::Value>& shard = shards_[support::to_size(level)];
    for (std::size_t i = 0; i < locals.size(); ++i) out[i] = shard[locals[i]];
  }
  void visit_shard(int level, const ShardVisitor& fn) const override {
    RETRA_CHECK(level >= 0 && level < num_levels());
    fn(shards_[support::to_size(level)]);
  }
  StoreStats stats() const override {
    StoreStats stats;
    stats.queue_spilled_records = queue_spilled();
    stats.resident_bytes = stored_bytes();
    stats.peak_resident_bytes = stored_bytes();
    return stats;
  }

 private:
  void store_shard(std::vector<db::Value> shard) override {
    shards_.push_back(std::move(shard));
  }

  std::vector<std::vector<db::Value>> shards_;
};

/// Out-of-core backend: completed shards live in per-level RTRADB03
/// scratch files; lookups fault blocks back under the byte budget.
class FileLevelStore final : public LevelStore {
 public:
  FileLevelStore(const StoreConfig& config, int rank);
  ~FileLevelStore() override;

  void values(int level, std::span<const std::uint64_t> locals,
              std::span<db::Value> out) const override;
  void visit_shard(int level, const ShardVisitor& fn) const override;
  StoreStats stats() const override;

 private:
  struct SpilledLevel {
    std::string path;
    std::unique_ptr<serve::FileSource> source;
  };

  void store_shard(std::vector<db::Value> shard) override;
  std::string level_path(int level) const;

  const StoreConfig config_;
  const int rank_;
  mutable support::Mutex mutex_;
  /// Spilled levels and the cache of their decoded blocks.  Guarded:
  /// worker threads of this rank fault blocks concurrently during
  /// chunk-parallel scans.
  mutable std::vector<SpilledLevel> levels_ RETRA_GUARDED_BY(mutex_);
  mutable serve::BlockCache cache_ RETRA_GUARDED_BY(mutex_);
  std::uint64_t levels_spilled_ RETRA_GUARDED_BY(mutex_) = 0;
  std::uint64_t spill_bytes_ RETRA_GUARDED_BY(mutex_) = 0;
};

/// Backend selection: the file store when `config` sets a working-set
/// budget (scratch_dir required), the memory store otherwise.
std::unique_ptr<LevelStore> make_level_store(const StoreConfig& config,
                                             int rank);

/// The drain queue with an out-of-core tail.
//
// In-memory builds queue locals in a plain vector; out-of-core builds
// must bound that too (the first magnitude of a large level can queue a
// big fraction of the shard).  Beyond `queue_mem_entries` the tail is
// appended to a run file in the scratch directory; drain() replays the
// spilled records strictly in push order, in segments of at most the
// in-RAM entry budget, so the wave algorithm reads runs sequentially and
// never random-writes evicted storage.  Pushes issued while draining go
// to the *other* run file (ping-pong) and form the next drain cycle —
// exactly the next-wave semantics of the in-memory queue, so the update
// order, and with it every value and counter, is unchanged.
class SpillQueue {
 public:
  SpillQueue() = default;
  ~SpillQueue();
  SpillQueue(const SpillQueue&) = delete;
  SpillQueue& operator=(const SpillQueue&) = delete;

  /// Enables spilling: tails beyond `mem_entries` go to run files
  /// "<path_base>.a.run" / "<path_base>.b.run"; spilled record counts are
  /// reported to `store`.  Without enable() the queue is a plain vector.
  void enable(const std::string& path_base, std::uint64_t mem_entries,
              LevelStore* store);

  bool empty() const { return total_ == 0; }

  void push(std::uint64_t local) {
    tail_.push_back(local);
    ++total_;
    if (mem_entries_ != 0 && tail_.size() >= mem_entries_) spill_tail();
  }

  /// Hands every queued entry to `fn` in push order as spans of at most
  /// the in-RAM entry budget (one span of everything when spilling is
  /// disabled).  Entries pushed during `fn` belong to the next drain().
  template <typename Fn>
  void drain(Fn&& fn) {
    std::FILE* run = run_;
    const std::uint64_t run_records = run_records_;
    run_ = nullptr;
    run_records_ = 0;
    std::vector<std::uint64_t> tail = std::move(tail_);
    tail_ = {};
    total_ = 0;
    use_b_ = !use_b_;  // pushes from fn spill to the other run file
    if (run != nullptr) {
      std::vector<std::uint64_t> segment;
      std::uint64_t remaining = run_records;
      begin_replay(run);
      while (remaining > 0) {
        const std::uint64_t count = std::min(remaining, mem_entries_);
        read_segment(run, segment, count);
        fn(std::span<const std::uint64_t>(segment));
        remaining -= count;
      }
      end_replay(run, use_b_ ? path_a_ : path_b_);
    }
    const std::size_t step =
        mem_entries_ != 0 ? static_cast<std::size_t>(mem_entries_)
                          : tail.size();
    for (std::size_t begin = 0; begin < tail.size(); begin += step) {
      const std::size_t count = std::min(step, tail.size() - begin);
      fn(std::span<const std::uint64_t>(tail.data() + begin, count));
    }
  }

 private:
  void spill_tail();
  static void begin_replay(std::FILE* run);
  static void read_segment(std::FILE* run, std::vector<std::uint64_t>& out,
                           std::uint64_t count);
  static void end_replay(std::FILE* run, const std::string& path);

  std::string path_a_;
  std::string path_b_;
  std::uint64_t mem_entries_ = 0;  // 0 = spilling disabled
  LevelStore* store_ = nullptr;
  bool use_b_ = false;             // which run file new spills append to
  std::FILE* run_ = nullptr;       // open spill file for the current cycle
  std::uint64_t run_records_ = 0;  // records in run_
  std::vector<std::uint64_t> tail_;
  std::uint64_t total_ = 0;
};

}  // namespace retra::para
