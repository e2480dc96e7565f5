// The per-rank distributed retrograde-analysis engine.
//
// One RankEngine builds one rank's shard of the level being solved and
// talks to the other ranks exclusively through its msg::Comm endpoint.
// The shard's storage is owned by the rank's para::LevelStore (the
// engine's value/best/cnt arrays are the store's active BuildArrays, and
// lower-level reads go through the store as well), so the same engine
// code runs fully in-RAM or out-of-core depending on the store backend
// the DistributedDatabase was configured with.  The
// engine is written as bulk-synchronous supersteps (see
// retra/para/drivers.hpp) so the identical code runs under real threads
// and under the discrete-event cluster simulator.
//
// Life of a level on P ranks:
//
//   Init        every rank scans its local positions once: counts
//               same-level successor edges (cnt), evaluates terminal exits
//               and locally-resolvable capture exits into `best`, and
//               ships a combined Lookup batch to the owners of remote
//               lower-level positions.  Owners answer with combined Reply
//               batches; replies fold into `best`.  The phase ends at
//               global quiescence (nothing in flight, nothing to do).
//   Magnitude u every rank seeds positions with best == u (value +u) and
//   = bound..1  drains its queue: finalising a position generates its
//               same-level predecessors (unmoves); local predecessors are
//               updated in place, remote ones become combined Update
//               records.  Updates decrement cnt / raise best and may
//               cascade.  Each magnitude ends at global quiescence; the
//               first one also finalises positions whose cnt was 0 after
//               initialisation.
//   Zero-fill   surviving positions can cycle forever: value 0.
//
// Two-level parallelism: with worker threads the embarrassingly parallel
// phases — the Init scan, each magnitude's seeding sweep, and the
// zero-fill — split the rank's local range into one contiguous chunk per
// thread (exec::chunk_range) and run on a persistent exec::WorkerPool;
// the scan-side phases and the drain waves can use different widths
// (EngineConfig::threads_scan / threads_drain) since they saturate
// differently.  Chunks write only their own slice of values_/best_/cnt_;
// everything with global order — outgoing records, queue pushes, stats,
// work-meter charges — is staged per chunk (records in lock-free
// per-destination CombinerBanks) and merged *in chunk order* after the
// join.  Since the merged sequence equals, per destination, what a
// single-threaded sweep would have produced, the database bits, the
// message framing, and every published count are independent of every
// thread-count choice.
//
// The seeding and zero-fill sweeps themselves run on the exec::simd
// kernels — data-parallel compare/select over the packed std::int16_t
// value words with a scalar tail — whose every backend returns the same
// ascending match sequence, so vectorisation is invisible to all of the
// identities above.
//
// The queue drain parallelises in *waves*, both halves of each one on the
// pool.  The queue is snapshotted and predecessor generation runs
// chunk-parallel over the snapshot: remote updates are staged per chunk,
// local ones are bucketed by the *apply slice* that owns their target
// (exec::chunk_range over the local range, one slice per drain thread),
// each tagged with its sequence number in its chunk's edge order.  A
// second fork-join then has every slice apply its buckets in (chunk, seq)
// order.  That is exactly the order in which a serial pass over the chunks
// would have met the same updates *per target*, and an update reads and
// writes only its own target's value/cnt/best while every counter is a
// sum, so the slices reproduce the serial apply's final state and
// counters bit for bit.  The positions they finalise join the queue in
// (chunk, seq) order of the update that finalised them — the serial
// order — and form the next wave.  Every queued position is popped
// exactly once, so the update multiset matches a LIFO drain's, and the
// chunk-order merge makes the record stream identical for every T.
//
// Init's lower-level reads are block-ordered.  A capture exit lands at a
// scattered index of a lower level, so reading each one as the scan meets
// it walks the store in random order, and an out-of-core store whose
// budget is below the touched blocks faults on nearly every read.  So
// each scan chunk defers its local exits (up to kScanReads of them), sorts
// them by (level, local) and reads the store a run of same-block
// positions at a time, folding each exit's value into best_ with max —
// order-free, and best_ is not read before Init ends.  The owner side does
// the same with the lookups of one superstep's inbox (up to kLookupBatch
// at a time): it reads in (level, local) order, then replies in arrival
// order, so the reply records and every message are exactly those of
// answering each lookup on arrival.
//
// This mirrors the sequential sweep solver exactly; tests require the
// gathered distributed database to be bit-identical to the sequential one.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "retra/db/database.hpp"
#include "retra/exec/simd.hpp"
#include "retra/exec/worker_pool.hpp"
#include "retra/game/level_game.hpp"
#include "retra/msg/combiner.hpp"
#include "retra/msg/comm.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/dist_db.hpp"
#include "retra/para/partition.hpp"
#include "retra/para/records.hpp"
#include "retra/ra/sweep_solver.hpp"
#include "retra/support/access_check.hpp"
#include "retra/support/check.hpp"

namespace retra::para {

/// What one superstep did; the driver reduces these across ranks to detect
/// phase quiescence.
struct StepReport {
  std::uint64_t records_sent = 0;
  std::uint64_t records_received = 0;
  std::uint64_t work = 0;  // local state transitions this step
  bool ready = false;      // rank finished its local phase obligations

  /// The identity of the += reduction.  A default-constructed report has
  /// ready = false (a rank that did not report is not ready), which makes
  /// it an absorbing element, not an identity — folding into it yields
  /// ready == false forever.  Reductions must start from this seed.
  static StepReport reduction_identity() {
    StepReport identity;
    identity.ready = true;
    return identity;
  }

  StepReport& operator+=(const StepReport& other) {
    records_sent += other.records_sent;
    records_received += other.records_received;
    work += other.work;
    ready = ready && other.ready;
    return *this;
  }
};

/// Engine tuning knobs.
struct EngineConfig {
  /// Combining buffer size in bytes; 1 disables combining (one record per
  /// message — the paper's naive baseline).
  std::size_t combine_bytes = 4096;
  /// Worker threads for the intra-rank parallel phases; 1 runs everything
  /// on the rank's own thread.  Results are bit-identical for every value.
  int threads_per_rank = 1;
  /// Per-phase overrides: the scan-side sweeps (Init scan, magnitude
  /// seeding, zero-fill) and the drain waves saturate at different
  /// widths, so their chunk counts are tunable independently.  0 inherits
  /// threads_per_rank; the pool is sized for the wider phase.  The
  /// produced database and every published count are bit-identical for
  /// every combination.
  int threads_scan = 0;
  int threads_drain = 0;
};

/// Per-engine cumulative statistics for the communication tables.
struct EngineStats {
  std::uint64_t updates_remote = 0;  // update records sent to other ranks
  std::uint64_t updates_local = 0;   // applied in place, no message
  std::uint64_t lookups_remote = 0;
  std::uint64_t lookups_local = 0;   // exits resolved against local shards
  std::uint64_t replies_sent = 0;
  std::uint64_t assignments = 0;
  std::uint64_t zero_filled = 0;
  std::uint64_t messages_sent = 0;  // combined messages (all tags)
  std::uint64_t payload_bytes = 0;

  EngineStats& operator+=(const EngineStats& other) {
    updates_remote += other.updates_remote;
    updates_local += other.updates_local;
    lookups_remote += other.lookups_remote;
    lookups_local += other.lookups_local;
    replies_sent += other.replies_sent;
    assignments += other.assignments;
    zero_filled += other.zero_filled;
    messages_sent += other.messages_sent;
    payload_bytes += other.payload_bytes;
    return *this;
  }

  /// Records that crossed rank boundaries — the numerator of the paper's
  /// combining factor (T3).
  std::uint64_t remote_records() const {
    return updates_remote + lookups_remote + replies_sent;
  }

  /// Achieved combining factor (records per combined message, T3/F2).
  double records_per_message() const {
    return messages_sent ? static_cast<double>(remote_records()) /
                               static_cast<double>(messages_sent)
                         : 0.0;
  }
};

template <typename Game>
class RankEngine {
 public:
  RankEngine(const Game& game, const Partition& partition, msg::Comm& comm,
             DistributedDatabase& lower, const EngineConfig& config)
      : game_(game),
        partition_(partition),
        comm_(comm),
        rank_(comm.rank()),
        lower_(lower),
        bound_(game.max_value()),
        threads_scan_(phase_threads(config.threads_scan, config)),
        threads_drain_(phase_threads(config.threads_drain, config)),
        threads_(threads_scan_ > threads_drain_ ? threads_scan_
                                                : threads_drain_),
        store_(lower.store(comm.rank())),
        build_(store_.begin_build(partition.local_size(comm.rank()))),
        values_(build_.values),
        best_(build_.best),
        cnt_(build_.cnt),
        lookup_combiner_(comm, kTagLookup, config.combine_bytes),
        reply_combiner_(comm, kTagReply, config.combine_bytes),
        update_combiner_(comm, kTagUpdate, config.combine_bytes) {
    const std::uint64_t local = partition_.local_size(comm_.rank());
    best_.assign(local, ra::kNoOption);
    const StoreConfig& store_config = lower_.store_config();
    if (store_config.out_of_core()) {
      queue_.enable(store_config.scratch_dir + "/rank" +
                        std::to_string(comm_.rank()) + "_queue",
                    store_config.queue_mem_entries, &store_);
    }
    if (threads_ > 1) {
      pool_ = std::make_unique<exec::WorkerPool>(
          static_cast<unsigned>(threads_));
    }
    const unsigned slices = drain_slices();
    for (unsigned k = 0; k < slices; ++k) {
      slice_begin_.push_back(exec::chunk_range(local, slices, k).begin);
    }
    drain_done_ = std::make_unique<std::atomic<unsigned>[]>(slices);
    merge_cursors_.resize(slices);
    RETRA_OBS_SET(obs::Id::kEngineScanThreads,
                  static_cast<std::uint64_t>(threads_scan_));
    RETRA_OBS_SET(obs::Id::kEngineDrainThreads,
                  static_cast<std::uint64_t>(threads_drain_));
    RETRA_OBS_SET(obs::Id::kEngineKernelLanes,
                  static_cast<std::uint64_t>(exec::simd::active_lanes()));
  }

  /// One bulk-synchronous superstep; see the file comment for the phase
  /// structure.  Drains the inbox, performs the phase's local work,
  /// flushes all combining buffers.
  StepReport superstep() {
    StepReport step;
    drain_inbox(step);
    switch (phase_) {
      case Phase::kInit:
        if (!scan_done_) {
          scan_local(step);
          scan_done_ = true;
        }
        step.ready = true;
        break;
      case Phase::kMagnitude:
        if (!seeded_) {
          seed_magnitude(step);
          seeded_ = true;
        }
        process_queue(step);
        step.ready = true;
        break;
      case Phase::kZeroFill:
        if (!zero_filled_) {
          zero_fill(step);
          zero_filled_ = true;
        }
        step.ready = true;
        break;
      case Phase::kDone:
        step.ready = true;
        break;
    }
    flush_combiners();
    return step;
  }

  /// Global phase transition; the driver calls it on every engine when the
  /// current phase is quiescent on all ranks.
  void advance() {
    switch (phase_) {
      case Phase::kInit:
        // Lookups are sent and answered only during Init.
        lookup_reads_ = {};
        lookup_askers_ = {};
        lookup_values_ = {};
        magnitude_ = bound_;
        finalize_init_ = true;
        phase_ = magnitude_ >= 1 ? Phase::kMagnitude : Phase::kZeroFill;
        seeded_ = false;
        break;
      case Phase::kMagnitude:
        RETRA_CHECK_MSG(queue_.empty(), "advance with unprocessed queue");
        --magnitude_;
        seeded_ = false;
        if (magnitude_ < 1) phase_ = Phase::kZeroFill;
        break;
      case Phase::kZeroFill:
        phase_ = Phase::kDone;
        break;
      case Phase::kDone:
        break;
    }
  }

  bool done() const { return phase_ == Phase::kDone; }

  const EngineStats& stats() const { return stats_; }

  /// Value bytes this rank holds for the level under construction
  /// (values + best + cnt): the T4 working-set accounting.
  std::uint64_t working_bytes() const {
    return values_.size() * (sizeof(db::Value) * 2 + sizeof(std::uint16_t));
  }

 private:
  enum class Phase { kInit, kMagnitude, kZeroFill, kDone };

  /// Cacheline distance the drain wave and the apply slices prefetch
  /// ahead: the wave's values_ reads and the applies' values_/cnt_/best_
  /// reads are data-dependent random accesses the hardware prefetcher
  /// cannot predict, while the upcoming *indices* sit in sequential arrays
  /// it can.  Eight iterations ≈ the latency of one predecessor generation.
  static constexpr std::uint64_t kPrefetchAhead = 8;

  /// Wave segments shorter than this run their chunks and slices in turn
  /// on the rank's thread (same decomposition, same results): below a few
  /// hundred positions the work is cheaper than two pool wake-ups.
  static constexpr std::size_t kMinPooledWave = 256;

  /// Caps of the deferred lower-level reads: local capture exits per scan
  /// chunk, and incoming lookups per answered batch.  Each deferred read
  /// holds 16 bytes (a queued lookup 34, with its asker and value).
  static constexpr std::size_t kScanReads = std::size_t{1} << 15;
  static constexpr std::size_t kLookupBatch = std::size_t{1} << 15;
  /// Store reads per values_local() call while resolving.
  static constexpr std::size_t kReadRun = 256;

  static int phase_threads(int requested, const EngineConfig& config) {
    const int t = requested > 0 ? requested : config.threads_per_rank;
    return t > 1 ? t : 1;
  }

  int rank() const { return rank_; }

  // ------------------------------------------------------------------
  // Chunked fork-join execution of the embarrassingly parallel phases.

  /// A local predecessor update generated by a drain chunk, bound for the
  /// apply slice that owns its target.  `seq` is its position among the
  /// chunk's local updates in edge order.
  struct SliceUpdate {
    std::uint64_t local;
    std::uint32_t seq;
    db::Value contribution;
  };

  /// A position an apply slice finalised, keyed by the `seq` of the
  /// update that did it.
  struct Finalised {
    std::uint32_t seq;
    std::uint64_t local;
  };

  /// Everything a chunk produces besides its own slice of the value
  /// arrays.  Merged into the engine strictly in chunk order so the global
  /// sequence of records, queue pushes, stats, and meter charges matches
  /// the single-threaded sweep bit for bit.  In a drain wave, entry c is
  /// both generation chunk c and apply slice c.
  struct ChunkOut {
    EngineStats stats;
    msg::WorkMeter meter;
    /// Lock-free per-destination staging (scan: lookups; drain: update
    /// records); drained destination-ascending after the join.
    msg::CombinerBank staged;
    /// Locals to queue, in order: the seeding sweep's assignments, or the
    /// positions the drain's updates from this chunk finalised.
    std::vector<std::uint64_t> seeded;
    /// Drain, generation side: local updates, one bucket per apply slice.
    std::vector<std::vector<SliceUpdate>> to_slice;
    /// Drain, apply side: what this slice finalised, one list per
    /// generation chunk, each in seq order.
    std::vector<std::vector<Finalised>> finalised;
    std::uint64_t work = 0;

    /// Empties every buffer for the next phase or wave, keeping capacity.
    void reset(int dests, std::size_t record_size, unsigned slices) {
      stats = {};
      meter.clear();
      staged.reset(dests, record_size);
      seeded.clear();
      to_slice.resize(slices);
      for (auto& bucket : to_slice) bucket.clear();
      finalised.resize(slices);
      for (auto& list : finalised) list.clear();
      work = 0;
    }
  };

  /// Runs body(range, c) for every chunk c of [0, total) split into
  /// `chunks`, on the pool.  The pool is sized for the widest phase;
  /// surplus slots return immediately.  With one chunk, or with
  /// `on_pool` false, the rank's own thread runs the chunks in turn
  /// through the same code path: same decomposition, same results.
  template <typename Body>
  void fork_join(std::uint64_t total, unsigned chunks, Body&& body,
                 bool on_pool = true) {
    auto run_one = [&](unsigned c) {
      if (c >= chunks) return;  // pool slot beyond this phase's width
      // Worker threads act on behalf of this rank and own exactly their
      // chunk's local slice; both tags make the access checker enforce it.
      const support::ScopedActor actor(rank());
      const exec::ChunkRange range = exec::chunk_range(total, chunks, c);
      const support::ScopedChunk chunk(range.begin, range.end);
      body(range, c);
    };
    if (pool_ && chunks > 1 && on_pool) {
      pool_->run(run_one);
    } else {
      for (unsigned c = 0; c < chunks; ++c) run_one(c);
    }
    RETRA_OBS_ADD(obs::Id::kEngineScanChunks, chunks);
  }

  /// Runs body(range, out) for every one of `chunks` chunks of
  /// [0, total) — the scan-side phases use threads_scan_ chunks, the
  /// drain waves threads_drain_.  Each chunk's buffers are reset here,
  /// its staging bank for `record_size`-byte records.
  template <typename Body>
  void run_chunked(std::uint64_t total, int phase_chunks,
                   std::size_t record_size, std::vector<ChunkOut>& outs,
                   Body&& body, bool on_pool = true) {
    const auto chunks = static_cast<unsigned>(phase_chunks);
    outs.resize(chunks);
    for (ChunkOut& out : outs) {
      out.reset(comm_.size(), record_size, drain_slices());
    }
    fork_join(
        total, chunks,
        [&](const exec::ChunkRange& range, unsigned c) {
          body(range, outs[c]);
        },
        on_pool);
  }

  /// Deterministic merge — chunk order, never completion order.  Staged
  /// records drain into `combiner` (lookups for the scan, updates for the
  /// drain) and each chunk's `seeded` locals join the queue; the cost
  /// beyond the record replay is O(queued).
  void merge_chunks(std::vector<ChunkOut>& outs, StepReport& step,
                    msg::Combiner& combiner) {
    for (ChunkOut& out : outs) {
      stats_ += out.stats;
      comm_.meter() += out.meter;
      step.work += out.work;
      step.records_sent += out.staged.records();
      // Draining per destination reproduces the T = 1 per-destination
      // record streams — and with them every flush boundary, message
      // frame, and kRecordPack charge — in one bulk append per
      // destination instead of a per-record replay (see CombinerBank).
      out.staged.replay_into(combiner);
      for (const std::uint64_t local : out.seeded) queue_.push(local);
    }
  }

  // ------------------------------------------------------------------
  // Initialisation scan.

  void scan_local(StepReport& step) {
    support::check_mutable(rank(), "engine.scan_local");
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineScanSeconds);
    const std::uint64_t local_size = partition_.local_size(rank());
    std::vector<ChunkOut> outs;
    run_chunked(
        local_size, threads_scan_, LookupRecord::kWireSize, outs,
        [&](const exec::ChunkRange& range, ChunkOut& out) {
          RETRA_CHECK_MSG(range.size() <= UINT32_MAX, "scan chunk too large");
          // Local capture exits are deferred and resolved in (level,
          // local) order, a block at a time (see the file comment).
          std::vector<LowerRead> reads;
          reads.reserve(std::min<std::uint64_t>(kScanReads, range.size()));
          const auto fold = [&](std::uint32_t slot, db::Value value) {
            const std::uint64_t local = range.begin + slot;
            support::check_chunk(local, "engine.scan_fold");
            if (value > best_[local]) best_[local] = value;
          };
          // The cursor walks boards incrementally: to_global is monotonic
          // in `local` under every partition scheme, so successive seeks
          // are short forward hops instead of full unranks.
          auto cursor = game_.option_cursor();
          for (std::uint64_t local = range.begin; local < range.end;
               ++local) {
            support::check_chunk(local, "engine.scan_chunk");
            const idx::Index global = partition_.to_global(rank(), local);
            out.meter.charge(msg::WorkKind::kScanPosition);
            db::Value b = ra::kNoOption;
            std::uint32_t edges = 0;
            cursor.visit_options(
                global,
                [&](const game::Exit& exit) {
                  out.meter.charge(msg::WorkKind::kExitOption);
                  if (exit.is_terminal()) {
                    if (exit.reward > b) b = exit.reward;
                    return;
                  }
                  const Partition::Location where = lower_.locate(
                      rank(), exit.lower_level, exit.lower_index);
                  if (where.owner == rank()) {
                    ++out.stats.lookups_local;
                    if (reads.size() == kScanReads) resolve(reads, fold);
                    reads.push_back(lower_read(
                        exit.lower_level, where.local,
                        static_cast<std::uint32_t>(local - range.begin),
                        exit.reward, exit.same_mover));
                    return;
                  }
                  // Remote lower-level position: stage a combined lookup
                  // for its owner; the reply folds into best_ when it
                  // arrives.
                  ++out.stats.lookups_remote;
                  LookupRecord record;
                  record.target = exit.lower_index;
                  record.requester = global;
                  record.reward = exit.reward;
                  record.level = static_cast<std::uint8_t>(exit.lower_level);
                  record.same_mover = exit.same_mover ? 1 : 0;
                  stage(out.staged, where.owner, record);
                },
                [&](idx::Index) {
                  out.meter.charge(msg::WorkKind::kLevelEdge);
                  ++edges;
                });
            RETRA_CHECK_MSG(edges <= UINT16_MAX,
                            "successor edge count overflow");
            // A max, not a store: a full read batch may already have
            // folded this position's earlier local exits into best_.
            if (b > best_[local]) best_[local] = b;
            cnt_[local] = static_cast<std::uint16_t>(edges);
            ++out.work;
          }
          resolve(reads, fold);
        });
    merge_chunks(outs, step, lookup_combiner_);
    RETRA_OBS_ADD(obs::Id::kEngineScanPositions, local_size);
  }

  // ------------------------------------------------------------------
  // Block-ordered lower-level reads.

  /// One deferred read of this rank's lower-level store, for a local
  /// capture exit (slot = requester's offset in its scan chunk) or an
  /// incoming lookup (slot = arrival index in the lookup batch).
  struct LowerRead {
    std::uint64_t key;  // level << kLocalBits | store local: the sort key
    std::uint32_t slot;
    std::int16_t reward;
    bool same_mover;
  };
  static constexpr int kLocalBits = 48;

  static LowerRead lower_read(int level, std::uint64_t local,
                              std::uint32_t slot, std::int16_t reward,
                              bool same_mover) {
    RETRA_CHECK_MSG(local >> kLocalBits == 0, "lower-level offset too large");
    return LowerRead{
        static_cast<std::uint64_t>(level) << kLocalBits | local, slot, reward,
        same_mover};
  }

  /// Resolves `reads` in (level, local) order — each lower-level block
  /// is read once per run of its positions, however scattered the reads
  /// arrived — and calls fold(slot, exit value) for each; then empties
  /// `reads`.  Reads of one position may resolve in any order: each slot
  /// gets its own value.  The store is read in runs of at most kReadRun.
  template <typename Fold>
  void resolve(std::vector<LowerRead>& reads, Fold&& fold) const {
    std::sort(reads.begin(), reads.end(),
              [](const LowerRead& a, const LowerRead& b) {
                return a.key < b.key;
              });
    constexpr std::uint64_t kLocalMask = (std::uint64_t{1} << kLocalBits) - 1;
    std::array<std::uint64_t, kReadRun> locals;
    std::array<db::Value, kReadRun> values;
    for (std::size_t begin = 0; begin < reads.size();) {
      const std::uint64_t level = reads[begin].key >> kLocalBits;
      std::size_t n = 0;
      while (n < kReadRun && begin + n < reads.size() &&
             reads[begin + n].key >> kLocalBits == level) {
        locals[n] = reads[begin + n].key & kLocalMask;
        ++n;
      }
      lower_.values_local(rank(), static_cast<int>(level), {locals.data(), n},
                          {values.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        const LowerRead& read = reads[begin + i];
        game::Exit exit;
        exit.reward = read.reward;
        exit.lower_level = static_cast<std::int16_t>(level);
        exit.same_mover = read.same_mover;
        fold(read.slot, game::exit_value(exit, [&](int, idx::Index) {
               return values[i];
             }));
      }
      begin += n;
    }
    reads.clear();
  }

  // ------------------------------------------------------------------
  // Message handling.

  void drain_inbox(StepReport& step) {
    msg::Message message;
    while (comm_.try_recv(message)) {
      switch (message.tag) {
        case kTagLookup:
          handle_lookups(message, step);
          break;
        case kTagReply:
          handle_replies(message, step);
          break;
        case kTagUpdate:
          handle_updates(message, step);
          break;
        default:
          RETRA_CHECK_MSG(false, "unexpected message tag");
      }
    }
    answer_lookups(step);
  }

  /// Queues incoming lookups into the batch answer_lookups() resolves;
  /// a full batch is answered at once.
  void handle_lookups(const msg::Message& message, StepReport& step) {
    msg::WireReader reader(message.payload.data());
    const std::size_t count = message.payload.size() / LookupRecord::kWireSize;
    RETRA_CHECK(count * LookupRecord::kWireSize == message.payload.size());
    for (std::size_t i = 0; i < count; ++i) {
      const LookupRecord lookup = LookupRecord::decode(reader);
      comm_.meter().charge(msg::WorkKind::kRecordUnpack);
      ++step.records_received;
      const Partition::Location where =
          lower_.locate(rank(), lookup.level, lookup.target);
      RETRA_CHECK_MSG(where.owner == rank(),
                      "lookup routed to a non-owner rank");
      lookup_reads_.push_back(
          lower_read(lookup.level, where.local,
                     static_cast<std::uint32_t>(lookup_askers_.size()),
                     lookup.reward, lookup.same_mover != 0));
      lookup_askers_.push_back(Asker{lookup.requester, message.source});
      if (lookup_askers_.size() == kLookupBatch) answer_lookups(step);
    }
  }

  /// Answers the pending lookup batch: the store is read in (level, local)
  /// order, the replies go out in arrival order — the same reply stream,
  /// and so the same messages, as answering each lookup on arrival.
  void answer_lookups(StepReport& step) {
    if (lookup_askers_.empty()) return;
    lookup_values_.resize(lookup_askers_.size());
    resolve(lookup_reads_, [&](std::uint32_t slot, db::Value value) {
      lookup_values_[slot] = value;
    });
    for (std::size_t i = 0; i < lookup_askers_.size(); ++i) {
      ReplyRecord reply;
      reply.requester = lookup_askers_[i].requester;
      reply.value = lookup_values_[i];
      ++stats_.replies_sent;
      append(reply_combiner_, lookup_askers_[i].source, reply, step);
      ++step.work;
    }
    lookup_askers_.clear();
  }

  void handle_replies(const msg::Message& message, StepReport& step) {
    support::check_mutable(rank(), "engine.handle_replies");
    msg::WireReader reader(message.payload.data());
    const std::size_t count = message.payload.size() / ReplyRecord::kWireSize;
    RETRA_CHECK(count * ReplyRecord::kWireSize == message.payload.size());
    for (std::size_t i = 0; i < count; ++i) {
      const ReplyRecord reply = ReplyRecord::decode(reader);
      comm_.meter().charge(msg::WorkKind::kRecordUnpack);
      ++step.records_received;
      const std::uint64_t local = partition_.to_local(reply.requester);
      RETRA_CHECK(partition_.owner(reply.requester) == rank());
      if (reply.value > best_[local]) best_[local] = reply.value;
      ++step.work;
    }
  }

  void handle_updates(const msg::Message& message, StepReport& step) {
    msg::WireReader reader(message.payload.data());
    const std::size_t count = message.payload.size() / UpdateRecord::kWireSize;
    RETRA_CHECK(count * UpdateRecord::kWireSize == message.payload.size());
    for (std::size_t i = 0; i < count; ++i) {
      const UpdateRecord update = UpdateRecord::decode(reader);
      comm_.meter().charge(msg::WorkKind::kRecordUnpack);
      ++step.records_received;
      const std::uint64_t local = partition_.to_local(update.target);
      if (apply_update(local, update.contribution, stats_, comm_.meter(),
                       step.work)) {
        queue_.push(local);
      }
    }
  }

  // ------------------------------------------------------------------
  // Propagation.

  void seed_magnitude(StepReport& step) {
    support::check_mutable(rank(), "engine.seed_magnitude");
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineSeedSeconds);
    const auto mag = static_cast<db::Value>(magnitude_);
    const bool finalize_init = finalize_init_;
    std::vector<ChunkOut> outs;
    // The sweep runs on the exec::simd kernels: each tile's matching
    // positions (unknown value, seedable best/cnt) come back as ascending
    // indices, so the assignment sequence — and through the chunk-order
    // merge the queue and the record stream — is exactly the scalar
    // sweep's, for every backend.  kSweepPosition is charged in bulk per
    // chunk so the meter, too, is backend- and T-invariant.
    run_chunked(
        values_.size(), threads_scan_, LookupRecord::kWireSize, outs,
        [&](const exec::ChunkRange& range, ChunkOut& out) {
          out.meter.charge(msg::WorkKind::kSweepPosition, range.size());
          std::array<std::uint32_t, exec::simd::kSweepTile> hits;
          for (std::uint64_t base = range.begin; base < range.end;
               base += hits.size()) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(hits.size(), range.end - base));
            std::size_t found;
            if (finalize_init) {
              found = exec::simd::collect_seed_candidates(
                  values_.data() + base, db::kUnknown, cnt_.data() + base,
                  best_.data() + base, mag, n, hits.data());
            } else {
              found = exec::simd::collect_eq2(values_.data() + base,
                                              db::kUnknown,
                                              best_.data() + base, mag, n,
                                              hits.data());
            }
            for (std::size_t h = 0; h < found; ++h) {
              const std::uint64_t local = base + hits[h];
              if (finalize_init && cnt_[local] == 0) {
                // All options were exits; the position is exact already.
                RETRA_CHECK(best_[local] != ra::kNoOption);
                chunk_assign(local, best_[local], out);
                continue;
              }
              RETRA_DCHECK(best_[local] == mag);
              chunk_assign(local, mag, out);
            }
          }
        });
    // Chunks stage their assignments in ascending local order and merge in
    // chunk order, so the queue matches the sequential sweep exactly.
    merge_chunks(outs, step, lookup_combiner_);
    std::uint64_t seeds = 0;
    for (const ChunkOut& out : outs) seeds += out.seeded.size();
    RETRA_OBS_ADD(obs::Id::kEngineKernelSweepPositions, values_.size());
    RETRA_OBS_ADD(obs::Id::kEngineKernelSweepMatches, seeds);
    finalize_init_ = false;
  }

  /// assign() for the chunked seeding sweep: the value write is chunk-local
  /// (disjoint slices); the queue push and the counters are staged.
  void chunk_assign(std::uint64_t local, db::Value value, ChunkOut& out) {
    support::check_chunk(local, "engine.seed_assign");
    RETRA_DCHECK(values_[local] == db::kUnknown);
    values_[local] = value;
    out.seeded.push_back(local);
    ++out.stats.assignments;
    ++out.work;
    out.meter.charge(msg::WorkKind::kAssign);
  }

  /// The one update rule, for incoming kTagUpdate records and the drain's
  /// apply slices alike: folds `contribution` into an unfinalised target
  /// and finalises it once its value is decided.  Returns whether it did;
  /// the caller queues the position.  Touches only the target's
  /// values_/cnt_/best_ entries and the tallies it is handed.
  bool apply_update(std::uint64_t local, db::Value contribution,
                    EngineStats& stats, msg::WorkMeter& meter,
                    std::uint64_t& work) {
    support::check_mutable(rank(), "engine.apply_update");
    support::check_chunk(local, "engine.apply_update");
    RETRA_CHECK_MSG(phase_ == Phase::kMagnitude,
                    "update outside a magnitude phase");
    meter.charge(msg::WorkKind::kUpdateApply);
    if (values_[local] != db::kUnknown) return false;
    ++work;
    RETRA_CHECK_MSG(cnt_[local] > 0, "more contributions than counted edges");
    --cnt_[local];
    if (contribution > best_[local]) best_[local] = contribution;
    const auto mag = static_cast<db::Value>(magnitude_);
    RETRA_CHECK_MSG(best_[local] <= mag,
                    "contribution above the current magnitude");
    if (best_[local] != mag && cnt_[local] != 0) return false;
    RETRA_CHECK(best_[local] != ra::kNoOption);
    values_[local] = best_[local];
    ++stats.assignments;
    ++work;
    meter.charge(msg::WorkKind::kAssign);
    return true;
  }

  unsigned drain_slices() const {
    return static_cast<unsigned>(threads_drain_);
  }

  /// The apply slice owning local offset `local`: slices are
  /// exec::chunk_range over the local range, so this counts the slice
  /// starts at or below it (branch-free; a handful of compares).
  unsigned slice_of(std::uint64_t local) const {
    unsigned slice = 0;
    for (std::size_t k = 1; k < slice_begin_.size(); ++k) {
      slice += local >= slice_begin_[k] ? 1u : 0u;
    }
    return slice;
  }

  void process_queue(StepReport& step) {
    if (queue_.empty()) return;
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineDrainSeconds);
    // Wave drain: predecessor generation — the dominant kernel — runs
    // chunk-parallel over a snapshot of the queue, then the slices apply
    // the local updates in parallel and refill the queue with the next
    // wave (see the file comment for why the order is the serial one).
    //
    // Out-of-core builds hand the wave over in bounded segments replayed
    // from the queue's run files.  Segmentation cannot change the result:
    // the merged record/apply sequence is wave-position order either way,
    // generation reads only values_ of already-finalised wave members
    // (which applies never touch — they assign only kUnknown positions,
    // and those are never queued), and positions finalised during a
    // segment's applies join the *next* wave exactly as before.
    while (!queue_.empty()) {
      queue_.drain([&](std::span<const std::uint64_t> wave) {
        // Waking the pool twice costs more than a small wave's work.
        const bool on_pool = wave.size() >= kMinPooledWave;
        generate_wave(wave, on_pool);
        apply_wave(step, on_pool);
      });
    }
  }

  /// Generation half of a wave: chunk c of `wave` stages its remote
  /// updates and buckets its local ones by apply slice.
  void generate_wave(std::span<const std::uint64_t> wave, bool on_pool) {
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineDrainGenerateSeconds);
    run_chunked(
        wave.size(), threads_drain_, UpdateRecord::kWireSize, drain_outs_,
        [&](const exec::ChunkRange& range, ChunkOut& out) {
          // Counted locally and charged once, for the same reason as the
          // apply slices' tallies.
          std::uint64_t seq = 0;
          std::uint64_t remote = 0;
          for (std::uint64_t i = range.begin; i < range.end; ++i) {
            // The wave array is sequential but the values_ it indexes are
            // not; fetch the cacheline of the position a few iterations
            // ahead while this one's predecessors generate.
            if (i + kPrefetchAhead < range.end) {
              exec::prefetch_read(values_.data() + wave[i + kPrefetchAhead]);
            }
            const std::uint64_t local = wave[i];
            const auto contribution = static_cast<db::Value>(-values_[local]);
            const idx::Index global = partition_.to_global(rank_, local);
            game_.visit_predecessors(global, [&](idx::Index pred) {
              const Partition::Location where = partition_.locate(pred);
              if (where.owner == rank_) {
                out.to_slice[slice_of(where.local)].push_back(SliceUpdate{
                    where.local, static_cast<std::uint32_t>(seq),
                    contribution});
                ++seq;
              } else {
                ++remote;
                UpdateRecord record;
                record.target = pred;
                record.contribution = contribution;
                stage(out.staged, where.owner, record);
              }
            });
          }
          RETRA_CHECK_MSG(seq <= UINT32_MAX, "drain chunk sequence overflow");
          out.stats.updates_local += seq;
          out.stats.updates_remote += remote;
          out.meter.charge(msg::WorkKind::kPredEdge, seq + remote);
        },
        on_pool);
  }

  /// Apply half of a wave: slice s applies its buckets from every chunk in
  /// (chunk, seq) order.  Chunk c's finalised positions are merged into
  /// seq order by whichever slice finishes chunk c last, so the serial
  /// merge only replays records and pushes the queue.
  void apply_wave(StepReport& step, bool on_pool) {
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineDrainApplySeconds);
    const unsigned slices = drain_slices();
    for (unsigned c = 0; c < slices; ++c) {
      drain_done_[c].store(0, std::memory_order_relaxed);
    }
    fork_join(values_.size(), slices,
              [&](const exec::ChunkRange&, unsigned s) {
                ChunkOut& mine = drain_outs_[s];
                // Tallies stay on this thread's stack until the slice is
                // done: the ChunkOuts sit side by side, and per-update
                // writes into them would bounce cache lines between slices.
                EngineStats stats;
                msg::WorkMeter meter;
                std::uint64_t work = 0;
                for (unsigned c = 0; c < slices; ++c) {
                  const std::vector<SliceUpdate>& bucket =
                      drain_outs_[c].to_slice[s];
                  std::vector<Finalised>& finalised = mine.finalised[c];
                  const std::size_t n = bucket.size();
                  for (std::size_t i = 0; i < n; ++i) {
                    if (i + kPrefetchAhead < n) {
                      const std::uint64_t ahead =
                          bucket[i + kPrefetchAhead].local;
                      exec::prefetch_read(values_.data() + ahead);
                      exec::prefetch_read(cnt_.data() + ahead);
                      exec::prefetch_read(best_.data() + ahead);
                    }
                    const SliceUpdate& update = bucket[i];
                    if (apply_update(update.local, update.contribution, stats,
                                     meter, work)) {
                      finalised.push_back(
                          Finalised{update.seq, update.local});
                    }
                  }
                  // acq_rel: the last slice through sees every slice's
                  // list for chunk c complete.
                  if (drain_done_[c].fetch_add(1, std::memory_order_acq_rel) +
                          1 ==
                      slices) {
                    merge_finalised(c);
                  }
                }
                mine.stats += stats;
                mine.meter += meter;
                mine.work += work;
              },
              on_pool);
    merge_chunks(drain_outs_, step, update_combiner_);
  }

  /// Interleaves every slice's finalised list for chunk c by seq into
  /// chunk c's queue order.  Seqs are unique within a chunk.
  void merge_finalised(unsigned c) {
    std::vector<std::uint64_t>& merged = drain_outs_[c].seeded;
    std::vector<Cursor>& cursors = merge_cursors_[c];
    cursors.clear();
    for (const ChunkOut& slice : drain_outs_) {
      const std::vector<Finalised>& list = slice.finalised[c];
      if (!list.empty()) {
        cursors.push_back(Cursor{list.data(), list.data() + list.size()});
      }
    }
    while (cursors.size() > 1) {
      std::size_t min = 0;
      for (std::size_t k = 1; k < cursors.size(); ++k) {
        if (cursors[k].next->seq < cursors[min].next->seq) min = k;
      }
      merged.push_back(cursors[min].next->local);
      if (++cursors[min].next == cursors[min].end) {
        cursors[min] = cursors.back();
        cursors.pop_back();
      }
    }
    if (!cursors.empty()) {
      for (const Finalised* f = cursors[0].next; f != cursors[0].end; ++f) {
        merged.push_back(f->local);
      }
    }
  }

  void zero_fill(StepReport& step) {
    support::check_mutable(rank(), "engine.zero_fill");
    RETRA_OBS_SCOPED_TIMER(timer, obs::Id::kEngineZeroFillSeconds);
    std::vector<ChunkOut> outs;
    // One replace_matching kernel call per chunk: every surviving
    // kUnknown becomes 0 and the count feeds the stats/meter in bulk —
    // all writes are the same value, so no per-position order exists to
    // preserve.  The chunk-boundary check_chunk calls pin the whole
    // written range to the chunk's slice.
    run_chunked(
        values_.size(), threads_scan_, LookupRecord::kWireSize, outs,
        [&](const exec::ChunkRange& range, ChunkOut& out) {
          if (range.empty()) return;
          support::check_chunk(range.begin, "engine.zero_fill_chunk");
          support::check_chunk(range.end - 1, "engine.zero_fill_chunk");
          out.meter.charge(msg::WorkKind::kSweepPosition, range.size());
          const std::uint64_t filled = exec::simd::replace_matching(
              values_.data() + range.begin, range.size(), db::kUnknown, 0);
          out.stats.zero_filled += filled;
          out.work += filled;
          out.meter.charge(msg::WorkKind::kAssign, filled);
        });
    merge_chunks(outs, step, lookup_combiner_);
    RETRA_OBS_ADD(obs::Id::kEngineKernelSweepPositions, values_.size());
    RETRA_OBS_ADD(obs::Id::kEngineKernelSweepMatches, stats_.zero_filled);
  }

  // ------------------------------------------------------------------
  // Combining.

  template <typename Record>
  void append(msg::Combiner& combiner, int dest, const Record& record,
              StepReport& step) {
    std::byte buffer[32];
    static_assert(Record::kWireSize <= sizeof(buffer));
    record.encode(buffer);
    combiner.append(dest, buffer, Record::kWireSize);
    ++step.records_sent;
  }

  /// Stages a record into a chunk's CombinerBank (worker-thread safe: the
  /// bank is chunk-private — lock-free by ownership — and drained later
  /// on the rank's own thread).  The bank was reset by run_chunked for
  /// exactly this record size.
  template <typename Record>
  static void stage(msg::CombinerBank& staged, int dest,
                    const Record& record) {
    std::byte buffer[32];
    static_assert(Record::kWireSize <= sizeof(buffer));
    record.encode(buffer);
    staged.append(dest, buffer);
  }

  void flush_combiners() {
    lookup_combiner_.flush_all();
    reply_combiner_.flush_all();
    update_combiner_.flush_all();
    stats_.messages_sent = lookup_combiner_.stats().messages +
                           reply_combiner_.stats().messages +
                           update_combiner_.stats().messages;
    stats_.payload_bytes = lookup_combiner_.stats().payload_bytes +
                           reply_combiner_.stats().payload_bytes +
                           update_combiner_.stats().payload_bytes;
  }

  const Game& game_;
  const Partition& partition_;
  msg::Comm& comm_;
  const int rank_;  // comm_.rank(), read on every update without a call
  const DistributedDatabase& lower_;
  const int bound_;
  const int threads_scan_;   // chunks for Init scan / seeding / zero-fill
  const int threads_drain_;  // chunks for the drain waves
  const int threads_;        // pool width: max of the phase widths

  // The rank's level storage and the active build inside it: values_/
  // best_/cnt_ alias the store-owned BuildArrays (pinned in RAM for the
  // duration of the build), so sealing the level is a move, not a copy.
  LevelStore& store_;
  BuildArrays& build_;
  std::vector<db::Value>& values_;
  std::vector<db::Value>& best_;
  std::vector<std::uint16_t>& cnt_;

  Phase phase_ = Phase::kInit;
  bool scan_done_ = false;
  bool seeded_ = false;
  bool finalize_init_ = false;
  bool zero_filled_ = false;
  int magnitude_ = 0;

  SpillQueue queue_;  // local offsets awaiting propagation

  // Drain-wave state, reused by every wave of the level.
  struct Cursor {
    const Finalised* next;
    const Finalised* end;
  };
  std::vector<ChunkOut> drain_outs_;  // chunk c = generation chunk + slice c
  std::vector<std::uint64_t> slice_begin_;  // first local of each slice
  std::unique_ptr<std::atomic<unsigned>[]> drain_done_;  // slices past chunk c
  std::vector<std::vector<Cursor>> merge_cursors_;  // merge_finalised scratch

  std::unique_ptr<exec::WorkerPool> pool_;  // only when threads_ > 1

  // The incoming lookup batch: its store reads, and who asked, by
  // arrival index.
  struct Asker {
    idx::Index requester;
    int source;
  };
  std::vector<LowerRead> lookup_reads_;
  std::vector<Asker> lookup_askers_;
  std::vector<db::Value> lookup_values_;

  msg::Combiner lookup_combiner_;
  msg::Combiner reply_combiner_;
  msg::Combiner update_combiner_;
  EngineStats stats_;
};

}  // namespace retra::para
