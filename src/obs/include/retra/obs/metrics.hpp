// Observability: the structured metrics registry.
//
// Every quantity the paper's evaluation tables are built from — messages,
// records per combined message, retransmissions, lookup traffic, per-level
// build times — is declared once in the metric catalog below and emitted
// through this registry.  Design constraints, in order:
//
//   * near-zero cost when disabled: call sites use the RETRA_OBS_* macros,
//     which compile to nothing under -DRETRA_METRICS=OFF (the arguments
//     are not even evaluated);
//   * thread-safe: one rank per OS thread is the production configuration,
//     so all slots are relaxed atomics — increments never synchronise;
//   * hot-path friendly: per-record quantities are published in bulk at
//     level or flush boundaries (see para::finalize_level_info and
//     msg::Combiner::flush); only per-message and rarer events increment
//     inline;
//   * machine-readable: snapshot() captures all values as plain data and
//     dump_json() renders the "retra-metrics-v1" document documented in
//     docs/METRICS.md.  Every catalog entry must be described there —
//     enforced by tests/test_obs.cpp.
//
// The catalog is a positional array indexed by obs::Id, so metric lookup
// is an array index, uniqueness of names is a static_assert, and the docs
// coverage check is a plain loop.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

// CMake defines RETRA_METRICS_ENABLED from the RETRA_METRICS option;
// standalone inclusion defaults to enabled.
#ifndef RETRA_METRICS_ENABLED
#define RETRA_METRICS_ENABLED 1
#endif

namespace retra::obs {

enum class Kind : int { kCounter, kGauge, kTimer, kHistogram };

constexpr std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kTimer:
      return "timer";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// One catalog entry.  `table` names the paper table/figure the metric
/// backs ("-" when it is operational only); docs/METRICS.md mirrors all
/// fields.
struct Desc {
  std::string_view name;
  Kind kind;
  std::string_view unit;
  std::string_view component;
  std::string_view table;
  std::string_view help;
};

/// Metric identifiers; position must match the catalog below.
enum class Id : int {
  // msg.combiner — the paper's central technique.
  kCombinerRecords,
  kCombinerMessages,
  kCombinerPayloadBytes,
  kCombinerRecordsPerMessage,
  // msg.reliable — reliability sublayer over the lossy transport.
  kReliableDataSent,
  kReliableRetries,
  kReliableAcksSent,
  kReliableDelivered,
  kReliableDuplicates,
  kReliableCorruptDropped,
  kReliableOutOfOrderHeld,
  // para.engine — per-level engine totals (published in bulk).
  kEngineUpdatesLocal,
  kEngineUpdatesRemote,
  kEngineLookupsLocal,
  kEngineLookupsRemote,
  kEngineRepliesSent,
  kEngineAssignments,
  kEngineZeroFilled,
  kEngineMessagesSent,
  kEnginePayloadBytes,
  // para.engine — intra-rank parallel phase kernels (P1).
  kEngineScanPositions,
  kEngineScanChunks,
  kEngineScanThreads,
  kEngineScanSeconds,
  kEngineSeedSeconds,
  kEngineZeroFillSeconds,
  kEngineDrainSeconds,
  kEngineDrainGenerateSeconds,
  kEngineDrainApplySeconds,
  kEngineDrainThreads,
  // para.engine — vectorized sweep kernels (P2).
  kEngineKernelLanes,
  kEngineKernelSweepPositions,
  kEngineKernelSweepMatches,
  // para.level_store — out-of-core level storage (published in bulk).
  kEngineStoreLevelsSpilled,
  kEngineStoreSpillBytes,
  kEngineStoreFaults,
  kEngineStoreFaultBytes,
  kEngineStoreEvictions,
  kEngineStoreQueueSpilledRecords,
  kEngineStoreResidentBytes,
  kEngineStorePeakResidentBytes,
  // para.exchange — shard replication (ablation A3).
  kExchangeRecordsBroadcast,
  // para.dist_db — lower-level database reads.
  kDistDbLocalReads,
  // para.checkpoint — checkpoint/restart I/O.
  kCheckpointBytesWritten,
  kCheckpointBytesRead,
  kCheckpointSaveSeconds,
  kCheckpointLoadSeconds,
  // para.driver — level orchestration.
  kDriverRanks,
  kDriverLevelsBuilt,
  kDriverPositions,
  kDriverRounds,
  kDriverLevelSeconds,
  // db.io — RTRADB03 block compression at save time (C1).
  kDbCompressBlocksRaw,
  kDbCompressBlocksRle,
  kDbCompressBlocksFreq,
  kDbCompressBytesIn,
  kDbCompressBytesOut,
  // serve.query — the query-serving subsystem (QueryService).
  kServeLookups,
  kServeBatchSize,
  // serve.query — the block cache under every file version (C1).
  kServeBlockHits,
  kServeBlockFaults,
  kServeBlockEvictions,
  kServeBlockResidentBytes,
  kServeBlockDecodeSeconds,
  // net.server — the retra-net-v1 TCP server.
  kNetConnections,
  kNetRequests,
  kNetErrors,
  kNetShed,
  kNetHotHits,
  kNetBytesIn,
  kNetBytesOut,
  kNetCoalescedLookups,
  kNetQueryMicros,
  kNetBatchMicros,
  kNetOtherMicros,
  kCount
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Id::kCount);

inline constexpr std::array<Desc, kMetricCount> kCatalog = {{
    {"combiner.records", Kind::kCounter, "records", "msg.combiner", "T3",
     "records appended to combining buffers (all tags)"},
    {"combiner.messages", Kind::kCounter, "messages", "msg.combiner", "T3/F2",
     "combined messages shipped (buffer flushes)"},
    {"combiner.payload_bytes", Kind::kCounter, "bytes", "msg.combiner",
     "T3/F2", "payload bytes shipped in combined messages"},
    {"combiner.records_per_message", Kind::kHistogram, "records",
     "msg.combiner", "T3/F2",
     "records packed into each combined message (combining factor)"},
    {"reliable.data_sent", Kind::kCounter, "frames", "msg.reliable", "-",
     "DATA frames first transmissions (not retries)"},
    {"reliable.retries", Kind::kCounter, "frames", "msg.reliable", "-",
     "DATA frames retransmitted after an ack timeout"},
    {"reliable.acks_sent", Kind::kCounter, "frames", "msg.reliable", "-",
     "cumulative ACK frames sent"},
    {"reliable.delivered", Kind::kCounter, "messages", "msg.reliable", "-",
     "logical messages delivered in order to the engine"},
    {"reliable.duplicates_suppressed", Kind::kCounter, "frames",
     "msg.reliable", "-", "duplicate DATA frames dropped by sequence number"},
    {"reliable.corrupt_dropped", Kind::kCounter, "frames", "msg.reliable",
     "-", "frames dropped on checksum mismatch"},
    {"reliable.out_of_order_held", Kind::kCounter, "frames", "msg.reliable",
     "-", "frames buffered until their sequence gap closed"},
    {"engine.updates_local", Kind::kCounter, "records", "para.rank_engine",
     "T3", "retrograde updates applied in place (no message)"},
    {"engine.updates_remote", Kind::kCounter, "records", "para.rank_engine",
     "T3", "retrograde update records sent to other ranks"},
    {"engine.lookups_local", Kind::kCounter, "records", "para.rank_engine",
     "T3/A3", "capture exits resolved against local shards"},
    {"engine.lookups_remote", Kind::kCounter, "records", "para.rank_engine",
     "T3/A3", "combined lookup records sent to owner ranks"},
    {"engine.replies_sent", Kind::kCounter, "records", "para.rank_engine",
     "T3/A3", "combined reply records answering remote lookups"},
    {"engine.assignments", Kind::kCounter, "positions", "para.rank_engine",
     "T5", "positions finalised with a nonzero-magnitude value"},
    {"engine.zero_filled", Kind::kCounter, "positions", "para.rank_engine",
     "T5", "positions zero-filled after all magnitudes"},
    {"engine.messages_sent", Kind::kCounter, "messages", "para.rank_engine",
     "T3/F2", "combined messages shipped by the engines' combiners"},
    {"engine.payload_bytes", Kind::kCounter, "bytes", "para.rank_engine",
     "T3/F2", "payload bytes shipped by the engines' combiners"},
    {"engine.scan.positions", Kind::kCounter, "positions",
     "para.rank_engine", "P1", "positions visited by Init scans"},
    {"engine.scan.chunks", Kind::kCounter, "chunks", "para.rank_engine",
     "P1", "worker-pool chunks executed by parallel engine phases"},
    {"engine.scan.threads", Kind::kGauge, "threads", "para.rank_engine",
     "P1",
     "scan-phase threads per rank of the most recently constructed engine"},
    {"engine.scan.seconds", Kind::kTimer, "seconds", "para.rank_engine",
     "P1", "host wall time in Init scans"},
    {"engine.seed.seconds", Kind::kTimer, "seconds", "para.rank_engine",
     "P1", "host wall time in magnitude seeding sweeps"},
    {"engine.zero_fill.seconds", Kind::kTimer, "seconds", "para.rank_engine",
     "P1", "host wall time in zero-fill sweeps"},
    {"engine.drain.seconds", Kind::kTimer, "seconds", "para.rank_engine",
     "P1", "host wall time draining propagation queues"},
    {"engine.drain.generate.seconds", Kind::kTimer, "seconds",
     "para.rank_engine", "P1/P2",
     "drain host wall time in chunk-parallel predecessor generation"},
    {"engine.drain.apply.seconds", Kind::kTimer, "seconds",
     "para.rank_engine", "P1/P2",
     "drain host wall time in sliced update apply plus the chunk-order merge"},
    {"engine.drain.threads", Kind::kGauge, "threads", "para.rank_engine",
     "P1",
     "drain-phase threads per rank of the most recently constructed engine"},
    {"engine.kernel.lanes", Kind::kGauge, "lanes", "para.rank_engine", "P2",
     "int16 lanes of the active sweep-kernel backend (1 = scalar)"},
    {"engine.kernel.sweep_positions", Kind::kCounter, "positions",
     "para.rank_engine", "P2",
     "positions examined by the vectorized seed/zero-fill sweep kernels"},
    {"engine.kernel.sweep_matches", Kind::kCounter, "positions",
     "para.rank_engine", "P2",
     "positions the sweep kernels selected (seeds plus zero-fills)"},
    {"engine.store.levels_spilled", Kind::kCounter, "levels",
     "para.level_store", "OC1",
     "completed level shards written to scratch files"},
    {"engine.store.spill_bytes", Kind::kCounter, "bytes", "para.level_store",
     "OC1", "stored bytes written while spilling completed shards"},
    {"engine.store.faults", Kind::kCounter, "blocks", "para.level_store",
     "OC1", "blocks faulted back from scratch files on demand"},
    {"engine.store.fault_bytes", Kind::kCounter, "bytes", "para.level_store",
     "OC1", "decoded bytes faulted back from scratch files"},
    {"engine.store.evictions", Kind::kCounter, "blocks", "para.level_store",
     "OC1", "resident blocks dropped to respect the working-set budget"},
    {"engine.store.queue_spilled_records", Kind::kCounter, "records",
     "para.level_store", "OC1",
     "drain-queue entries spilled to append-only run files"},
    {"engine.store.resident_bytes", Kind::kGauge, "bytes",
     "para.level_store", "OC1",
     "decoded completed-level bytes resident on the busiest rank"},
    {"engine.store.peak_resident_bytes", Kind::kGauge, "bytes",
     "para.level_store", "OC1",
     "peak decoded completed-level residency of the busiest rank"},
    {"exchange.records_broadcast", Kind::kCounter, "records",
     "para.shard_exchange", "A3",
     "shard records broadcast while replicating a solved level"},
    {"dist_db.local_reads", Kind::kCounter, "lookups", "para.dist_db",
     "T3/A3", "lower-level value reads served from rank-local storage"},
    {"checkpoint.bytes_written", Kind::kCounter, "bytes", "para.checkpoint",
     "-", "bytes written by checkpoint_save_level (levels + manifests)"},
    {"checkpoint.bytes_read", Kind::kCounter, "bytes", "para.checkpoint",
     "-", "bytes read back by checkpoint_load"},
    {"checkpoint.save_seconds", Kind::kTimer, "seconds", "para.checkpoint",
     "-", "wall time spent writing checkpoints"},
    {"checkpoint.load_seconds", Kind::kTimer, "seconds", "para.checkpoint",
     "-", "wall time spent loading checkpoints"},
    {"driver.ranks", Kind::kGauge, "ranks", "para.driver", "F1",
     "processor count of the most recent build"},
    {"driver.levels_built", Kind::kCounter, "levels", "para.driver", "T2",
     "levels completed by the shared level loop (host and simulated builds)"},
    {"driver.positions", Kind::kCounter, "positions", "para.driver", "T1",
     "positions solved across completed levels"},
    {"driver.rounds", Kind::kCounter, "rounds", "para.driver", "T2",
     "BSP rounds (or async supersteps) across completed levels"},
    {"driver.level_seconds", Kind::kTimer, "seconds", "para.driver", "T2",
     "host wall time per completed level build"},
    {"db.compress.blocks_raw", Kind::kCounter, "blocks", "db.io", "C1",
     "blocks stored raw because compression did not pay"},
    {"db.compress.blocks_rle", Kind::kCounter, "blocks", "db.io", "C1",
     "blocks stored run-length coded"},
    {"db.compress.blocks_freq", Kind::kCounter, "blocks", "db.io", "C1",
     "blocks stored canonical-prefix (frequency) coded"},
    {"db.compress.bytes_in", Kind::kCounter, "bytes", "db.io", "C1",
     "bit-packed bytes presented to the block encoder"},
    {"db.compress.bytes_out", Kind::kCounter, "bytes", "db.io", "C1",
     "stored bytes written after per-block scheme choice"},
    {"serve.lookups", Kind::kCounter, "lookups", "serve.query", "-",
     "positions answered by QueryService (single and batched)"},
    {"serve.batch_size", Kind::kHistogram, "lookups", "serve.query", "-",
     "lookups per values() batch"},
    {"serve.blockcache.hits", Kind::kCounter, "touches", "serve.query", "C1",
     "block-cache touches answered by an already-resident block"},
    {"serve.blockcache.faults", Kind::kCounter, "blocks", "serve.query",
     "C1", "blocks read, decoded and made resident on demand"},
    {"serve.blockcache.evictions", Kind::kCounter, "blocks", "serve.query",
     "C1", "resident blocks evicted to stay within the byte budget"},
    {"serve.blockcache.resident_bytes", Kind::kGauge, "bytes", "serve.query",
     "C1", "decoded block bytes currently resident"},
    {"serve.blockcache.decode_seconds", Kind::kTimer, "seconds",
     "serve.query", "C1",
     "wall time spent reading and decoding faulted blocks"},
    {"net.connections", Kind::kCounter, "connections", "net.server", "-",
     "TCP connections accepted since server start"},
    {"net.requests", Kind::kCounter, "frames", "net.server", "-",
     "request frames admitted past admission control"},
    {"net.errors", Kind::kCounter, "frames", "net.server", "-",
     "ERROR responses sent (malformed frames, bad addresses, sheds)"},
    {"net.shed", Kind::kCounter, "frames", "net.server", "-",
     "requests refused with BUSY by admission control"},
    {"net.hot_hits", Kind::kCounter, "lookups", "net.server", "-",
     "lookups answered by the shared hot-level tier"},
    {"net.bytes_in", Kind::kCounter, "bytes", "net.server", "-",
     "bytes read from client sockets"},
    {"net.bytes_out", Kind::kCounter, "bytes", "net.server", "-",
     "bytes written to client sockets"},
    {"net.coalesced_lookups", Kind::kHistogram, "lookups", "net.server", "-",
     "lookups per coalesced Store batch (cross-connection coalescing)"},
    {"net.query_us", Kind::kHistogram, "microseconds", "net.server", "-",
     "QUERY latency from admission to response enqueue"},
    {"net.batch_us", Kind::kHistogram, "microseconds", "net.server", "-",
     "BATCH_QUERY latency from admission to response enqueue"},
    {"net.other_us", Kind::kHistogram, "microseconds", "net.server", "-",
     "PING/STATS latency from admission to response enqueue"},
}};

constexpr const Desc& desc(Id id) {
  return kCatalog[static_cast<std::size_t>(id)];
}

/// Metric names must be unique — the registry, the JSON artifacts, and the
/// docs reference all key off the name.
constexpr bool catalog_names_unique() {
  for (std::size_t i = 0; i < kCatalog.size(); ++i) {
    for (std::size_t j = i + 1; j < kCatalog.size(); ++j) {
      if (kCatalog[i].name == kCatalog[j].name) return false;
    }
  }
  return true;
}
static_assert(catalog_names_unique(), "duplicate metric name in obs catalog");

/// Histogram buckets are log2-spaced: bucket b counts values v with
/// bit_width(v) == b, i.e. bucket 0 is {0}, bucket b is [2^(b-1), 2^b);
/// values at or beyond 2^(kHistogramBuckets-2) clamp into the last bucket.
inline constexpr std::size_t kHistogramBuckets = 33;

constexpr std::size_t histogram_bucket(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Plain-data copy of one metric's state.  `value` is the counter/gauge
/// value, or accumulated nanoseconds for timers; `count`/`sum`/`buckets`
/// are populated for timers (count) and histograms (all three).
struct MetricValue {
  std::uint64_t value = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double seconds() const { return static_cast<double>(value) * 1e-9; }
  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

/// Point-in-time copy of the whole registry; subtract two snapshots to get
/// the metrics of an interval (gauges keep the newer value).
struct Snapshot {
  std::array<MetricValue, kMetricCount> metrics{};

  const MetricValue& operator[](Id id) const {
    return metrics[static_cast<std::size_t>(id)];
  }
  MetricValue& operator[](Id id) {
    return metrics[static_cast<std::size_t>(id)];
  }

  Snapshot operator-(const Snapshot& base) const;
};

class Registry {
 public:
  /// The process-wide registry the RETRA_OBS_* macros target.
  static Registry& instance();

  void add(Id id, std::uint64_t n = 1) {
    slot(id).value.fetch_add(n, std::memory_order_relaxed);
  }
  void set(Id id, std::uint64_t v) {
    slot(id).value.store(v, std::memory_order_relaxed);
  }
  void observe(Id id, std::uint64_t v) {
    Slot& s = slot(id);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  }
  void add_time_ns(Id id, std::uint64_t ns) {
    Slot& s = slot(id);
    s.value.fetch_add(ns, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;

  /// Zeroes every slot.  Test-only: not atomic with respect to concurrent
  /// increments.
  void reset();

 private:
  struct Slot {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  Slot& slot(Id id) { return slots_[static_cast<std::size_t>(id)]; }

  std::array<Slot, kMetricCount> slots_;
};

/// Convenience free functions over the process registry.
Snapshot snapshot();
void reset();

/// Renders a snapshot as the "retra-metrics-v1" JSON document (see
/// docs/METRICS.md).  Zero-valued metrics are included: the document shape
/// never depends on the workload.
std::string dump_json(const Snapshot& snap);

class JsonWriter;  // retra/obs/json.hpp

/// Emits the snapshot's metric array (the value of the "metrics" key of
/// the retra-metrics-v1 document) into an open writer.  dump_json() and
/// the BENCH_*.json artifacts share this, so the per-metric shape is
/// identical everywhere.
void write_metrics_array(JsonWriter& w, const Snapshot& snap);

/// RAII timer feeding a Kind::kTimer metric (nanosecond resolution).
class ScopedTimer {
 public:
  explicit ScopedTimer(Id id);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Id id_;
  std::uint64_t start_ns_;
};

}  // namespace retra::obs

// Call-site macros.  With metrics disabled they expand to a no-op that
// does not evaluate its arguments (sizeof is unevaluated), so there is no
// atomic traffic, no clock read, and no dead argument computation.
#if RETRA_METRICS_ENABLED
#define RETRA_OBS_ADD(id, n) ::retra::obs::Registry::instance().add((id), (n))
#define RETRA_OBS_INC(id) ::retra::obs::Registry::instance().add((id), 1)
#define RETRA_OBS_SET(id, v) ::retra::obs::Registry::instance().set((id), (v))
#define RETRA_OBS_OBSERVE(id, v) \
  ::retra::obs::Registry::instance().observe((id), (v))
#define RETRA_OBS_TIME_NS(id, ns) \
  ::retra::obs::Registry::instance().add_time_ns((id), (ns))
#define RETRA_OBS_SCOPED_TIMER(var, id) const ::retra::obs::ScopedTimer var(id)
#else
#define RETRA_OBS_ADD(id, n) ((void)sizeof(id), (void)sizeof(n))
#define RETRA_OBS_INC(id) ((void)sizeof(id))
#define RETRA_OBS_SET(id, v) ((void)sizeof(id), (void)sizeof(v))
#define RETRA_OBS_OBSERVE(id, v) ((void)sizeof(id), (void)sizeof(v))
#define RETRA_OBS_TIME_NS(id, ns) ((void)sizeof(id), (void)sizeof(ns))
#define RETRA_OBS_SCOPED_TIMER(var, id) ((void)sizeof(id))
#endif
