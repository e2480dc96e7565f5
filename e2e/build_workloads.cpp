// build-p4, build-p1t4, build-ooc: whole database builds over P ranks x T
// threads, timed from para::build_parallel through
// DistributedDatabase::gather(), each between two runs of the memory
// reference loop (reference.hpp) that rescale it.
//
// The traced run cannot wrap build_parallel (it accepts no wrappers), so
// it drives each level itself from the same public calls build_parallel
// makes — make_partition, RankEngine over a timing msg::Comm decorator,
// run_bsp_threads, seal_level_from_builds — with every engine behind a
// superstep/advance/done forwarder that records the spans.  The gathered
// database is checked against the pinned digests like every other build,
// so the copy cannot drift from the real driver unnoticed.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "retra/db/db_io.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/msg/thread_comm.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/parallel_solver.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace retra::e2e {

namespace {

struct BuildSpec {
  int level = 14;
  int ranks = 4;
  int threads = 1;
  /// Per-rank completed-level budget; 0 builds in memory.
  std::uint64_t working_set_bytes = 0;
};

BuildSpec spec_for(const Options& options) {
  BuildSpec spec;
  if (options.workload == "build-p1t4") {
    spec.ranks = 1;
    spec.threads = 4;
  } else if (options.workload == "build-ooc") {
    spec.level = 13;
    spec.working_set_bytes = 256 * 1024;
  }
  if (options.smoke) spec.level = 8;
  return spec;
}

/// Fresh scratch directories for out-of-core builds (one build per
/// directory), each checked empty once its build is destroyed.
class Scratch {
 public:
  Scratch(const TempDir& tmp, const BuildSpec& spec)
      : root_(tmp.path()), enabled_(spec.working_set_bytes > 0) {}

  std::string next() {
    if (!enabled_) return {};
    return root_ + "/scratch-" + std::to_string(count_++);
  }

  /// Removes a finished build's directory; false when it was not empty.
  static bool release(const std::string& dir) {
    if (dir.empty()) return true;
    const bool empty = !std::filesystem::exists(dir) || directory_empty(dir);
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return empty;
  }

 private:
  std::string root_;
  bool enabled_;
  int count_ = 0;
};

para::ParallelConfig make_config(const BuildSpec& spec, int ranks,
                                 int threads, const std::string& scratch) {
  para::ParallelConfig config;
  config.ranks = ranks;
  config.threads_per_rank = threads;
  config.scheme = para::PartitionScheme::kCyclic;
  config.combine_bytes = 4096;
  config.use_threads = true;
  config.store.working_set_bytes = spec.working_set_bytes;
  config.store.scratch_dir = scratch;
  return config;
}

struct BuildOutcome {
  bool completed = false;
  double seconds = 0.0;
  db::Database database;
  std::vector<para::LevelRunInfo> levels;
};

BuildOutcome untraced_build(const BuildSpec& spec, int ranks, int threads,
                            const std::string& scratch) {
  const para::ParallelConfig config =
      make_config(spec, ranks, threads, scratch);
  BuildOutcome out;
  const std::uint64_t start = now_ns();
  para::ParallelResult result =
      para::build_parallel(game::AwariFamily{}, spec.level, config);
  out.completed = result.completed();
  if (out.completed) out.database = result.database->gather();
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  out.levels = std::move(result.levels);
  return out;  // the stores (and their scratch files) die here
}

/// One untraced build of spec.level in a fresh scratch directory, checked
/// against the pins.  Returns false when the build crashed or was wrong.
bool checked_build(const BuildSpec& spec, int ranks, int threads,
                   Scratch& scratch, const std::string& what,
                   Result& result, BuildOutcome& out) {
  const std::string dir = scratch.next();
  out = untraced_build(spec, ranks, threads, dir);
  if (!Scratch::release(dir)) {
    result.fail(what + ": scratch directory not empty after the build");
  }
  if (!out.completed) return false;
  return check_pinned(out.database, spec.level, what, result);
}

// ----------------------------------------------------------------------
// Traced build.

/// msg::Comm decorator timing every send and try_recv of one rank.
class TimingComm final : public msg::Comm {
 public:
  explicit TimingComm(msg::Comm& inner) : inner_(inner) {}

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  void send(int dest, std::uint8_t tag,
            std::vector<std::byte> payload) override {
    const std::uint64_t start = now_ns();
    inner_.send(dest, tag, std::move(payload));
    finish("msg.send", start, send_ns_);
  }

  bool try_recv(msg::Message& out) override {
    const std::uint64_t start = now_ns();
    const bool got = inner_.try_recv(out);
    finish("msg.recv", start, recv_ns_);
    ++recvs_;
    if (!got) ++empty_recvs_;
    return got;
  }

  std::uint64_t send_ns() const { return send_ns_; }
  std::uint64_t recv_ns() const { return recv_ns_; }
  std::uint64_t recvs() const { return recvs_; }
  std::uint64_t empty_recvs() const { return empty_recvs_; }

 private:
  void finish(const char* name, std::uint64_t start, std::uint64_t& total) {
    const std::uint64_t end = now_ns();
    total += end - start;
    const SpanContext& context = current_context();
    record_span({name, next_span_id(), context.parent, context.trace, start,
                 end, context.lane});
  }

  msg::Comm& inner_;
  std::uint64_t send_ns_ = 0;
  std::uint64_t recv_ns_ = 0;
  std::uint64_t recvs_ = 0;
  std::uint64_t empty_recvs_ = 0;
};

/// One rank's clock through one level; touched only by that rank's
/// thread until run_bsp_threads has joined it.
struct RankClock {
  std::uint64_t span = 0;  // the level's rank span, recorded after the join
  std::uint64_t first_start = 0;
  std::uint64_t last_return = 0;
  bool waiting = false;  // between a superstep's return and the next call
  int advances = 0;
};

/// The superstep/advance/done forwarder run_bsp_threads drives.  The
/// engine's phase is inferred from how many advance() calls it has seen.
template <typename Engine>
class TracedEngine {
 public:
  TracedEngine(std::unique_ptr<Engine> engine, RankClock& clock, int bound,
               std::uint64_t trace, std::uint32_t lane)
      : engine_(std::move(engine)),
        clock_(clock),
        bound_(bound),
        trace_(trace),
        lane_(lane) {}

  para::StepReport superstep() {
    const std::uint64_t start = now_ns();
    enter(start);
    const std::uint64_t id = next_span_id();
    current_context().parent = id;
    const para::StepReport report = engine_->superstep();
    const std::uint64_t end = now_ns();
    current_context().parent = clock_.span;
    record_span({phase_name(), id, clock_.span, trace_, start, end, lane_});
    clock_.last_return = end;
    clock_.waiting = true;
    return report;
  }

  void advance() {
    const std::uint64_t start = now_ns();
    enter(start);
    engine_->advance();
    ++clock_.advances;
    record_span({"engine.advance", next_span_id(), clock_.span, trace_,
                 start, now_ns(), lane_});
  }

  bool done() const { return engine_->done(); }

 private:
  /// Opens the rank's context on its first call and closes the barrier
  /// wait that began when the previous superstep returned.
  void enter(std::uint64_t now) {
    if (clock_.first_start == 0) {
      clock_.first_start = now;
      current_context() = SpanContext{clock_.span, trace_, lane_};
    }
    if (clock_.waiting) {
      record_span({"driver.barrier_wait", next_span_id(), clock_.span, trace_,
                   clock_.last_return, now, lane_});
      clock_.waiting = false;
    }
  }

  /// Init, then magnitudes bound..1 (none when bound is 0), then
  /// zero-fill, then the done round.
  const char* phase_name() const {
    const int zero_fill = bound_ >= 1 ? bound_ + 1 : 1;
    if (clock_.advances == 0) return "superstep.init";
    if (clock_.advances < zero_fill) return "superstep.magnitude";
    if (clock_.advances == zero_fill) return "superstep.zero_fill";
    return "superstep.done";
  }

  std::unique_ptr<Engine> engine_;
  RankClock& clock_;
  const int bound_;
  const std::uint64_t trace_;
  const std::uint32_t lane_;
};

struct TracedOutcome {
  double seconds = 0.0;
  std::uint64_t trace = 0;
  std::uint64_t rounds = 0;
  db::Database database;
  // Summed over the ranks' TimingComm decorators.
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t recvs = 0;
  std::uint64_t empty_recvs = 0;
};

/// Display lane of rank r (lane 0 is the driver thread).
std::uint32_t rank_lane(int rank) {
  return static_cast<std::uint32_t>(rank + 1);
}

TracedOutcome traced_build(const BuildSpec& spec, const std::string& scratch) {
  using Game = game::AwariLevel;
  TracedOutcome out;
  out.trace = next_span_id();
  current_context() = SpanContext{0, out.trace, 0};
  const para::ParallelConfig config =
      make_config(spec, spec.ranks, spec.threads, scratch);
  // Destroyed after the timed span, as build_parallel's are after the
  // untraced build's clock stops.
  std::unique_ptr<para::DistributedDatabase> ddb;
  std::unique_ptr<msg::ThreadWorld> world;
  std::vector<std::unique_ptr<TimingComm>> comms;
  const std::uint64_t start = now_ns();
  {
    const ScopedSpan build("build");
    ddb = std::make_unique<para::DistributedDatabase>(
        config.scheme, config.block_size, config.ranks, false, config.store);
    world = std::make_unique<msg::ThreadWorld>(config.ranks);
    for (int rank = 0; rank < config.ranks; ++rank) {
      comms.push_back(std::make_unique<TimingComm>(world->endpoint(rank)));
    }
    para::EngineConfig engine_config;
    engine_config.combine_bytes = config.combine_bytes;
    engine_config.threads_per_rank = para::effective_threads_per_rank(
        config.threads_per_rank, config.ranks, config.use_threads,
        config.oversubscribe);
    engine_config.threads_scan = para::effective_phase_threads(
        config.threads_scan, engine_config.threads_per_rank, config.ranks,
        config.use_threads, config.oversubscribe);
    engine_config.threads_drain = para::effective_phase_threads(
        config.threads_drain, engine_config.threads_per_rank, config.ranks,
        config.use_threads, config.oversubscribe);
    const game::AwariFamily family;

    for (int level = 0; level <= spec.level; ++level) {
      const ScopedSpan level_span("level");
      const Game game = family.level(level);
      const para::Partition partition = ddb->make_partition(game.size());
      std::vector<RankClock> clocks(support::to_size(config.ranks));
      for (RankClock& clock : clocks) clock.span = next_span_id();

      using Traced = TracedEngine<para::RankEngine<Game>>;
      std::vector<std::unique_ptr<Traced>> engines;
      {
        const ScopedSpan setup("level.setup");
        for (int rank = 0; rank < config.ranks; ++rank) {
          const std::size_t r = support::to_size(rank);
          engines.push_back(std::make_unique<Traced>(
              std::make_unique<para::RankEngine<Game>>(
                  game, partition, *comms[r], *ddb, engine_config),
              clocks[r], game.max_value(), out.trace, rank_lane(rank)));
        }
      }
      out.rounds += para::run_bsp_threads(engines);
      const std::uint64_t joined = now_ns();
      for (int rank = 0; rank < config.ranks; ++rank) {
        const RankClock& clock = clocks[support::to_size(rank)];
        if (clock.waiting) {
          record_span({"driver.barrier_wait", next_span_id(), clock.span,
                       out.trace, clock.last_return, joined,
                       rank_lane(rank)});
        }
        record_span({"rank", clock.span, level_span.id(), out.trace,
                     clock.first_start, joined, rank_lane(rank)});
      }
      const ScopedSpan seal("db.seal_level");
      engines.clear();
      ddb->seal_level_from_builds(level, game.size());
    }
    const ScopedSpan gather("db.gather");
    out.database = ddb->gather();
  }
  out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  current_context() = SpanContext{};
  for (const auto& comm : comms) {
    out.send_ns += comm->send_ns();
    out.recv_ns += comm->recv_ns();
    out.recvs += comm->recvs();
    out.empty_recvs += comm->empty_recvs();
  }
  return out;
}

/// Per-rank time partition of the traced build: the rank spans' wall
/// time against superstep self + send + recv + barrier wait + advance.
struct RankTimes {
  double wall = 0.0;
  double superstep_self = 0.0;
  double send = 0.0;
  double recv = 0.0;
  double barrier = 0.0;
  double advance = 0.0;

  double parts() const {
    return superstep_self + send + recv + barrier + advance;
  }
  double busy() const { return wall - barrier; }
};

bool starts_with(const char* text, const char* prefix) {
  return std::string(text).rfind(prefix, 0) == 0;
}

void add_traced_metrics(const BuildSpec& spec, const TracedOutcome& traced,
                        const std::string& trace_path, Result& result) {
  std::vector<Span> spans = collected_spans();
  const SpanAnalysis analysis = analyze_spans(spans);
  for (const std::string& error : analysis.errors) {
    result.fail("trace: " + error);
  }
  if (!write_chrome_trace(spans, trace_path)) {
    result.fail("cannot write the trace to " + trace_path);
  }

  std::vector<RankTimes> ranks(support::to_size(spec.ranks));
  std::map<std::string, double> phase_self;  // superstep self by phase
  double gather = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.trace != traced.trace) continue;
    const double seconds = static_cast<double>(span.duration_ns()) * 1e-9;
    const double self = static_cast<double>(analysis.self_ns[i]) * 1e-9;
    const std::string name = span.name;
    if (name == "db.gather") gather += seconds;
    if (span.lane == 0) continue;
    RankTimes& rank = ranks[span.lane - 1];
    if (name == "rank") {
      rank.wall += seconds;
    } else if (starts_with(span.name, "superstep.")) {
      rank.superstep_self += self;
      phase_self[name] += self;
    } else if (name == "msg.send") {
      rank.send += seconds;
    } else if (name == "msg.recv") {
      rank.recv += seconds;
    } else if (name == "driver.barrier_wait") {
      rank.barrier += seconds;
    } else if (name == "engine.advance") {
      rank.advance += seconds;
    }
  }

  double barrier = 0.0;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankTimes& rank = ranks[r];
    barrier += rank.barrier;
    busy_max = std::max(busy_max, rank.busy());
    busy_sum += rank.busy();
    const double gap = rank.wall > 0.0
                           ? (rank.wall - rank.parts()) / rank.wall
                           : 1.0;
    char line[200];
    std::snprintf(line, sizeof line,
                  "rank %zu: wall %.4f s = superstep self %.4f + send %.4f "
                  "+ recv %.4f + barrier %.4f + advance %.4f (%+.2f%%)",
                  r, rank.wall, rank.superstep_self, rank.send, rank.recv,
                  rank.barrier, rank.advance, 100.0 * gap);
    result.notes.push_back(line);
    if (gap > 0.05 || gap < -0.05) {
      result.fail(std::string("per-rank time partition does not close: ") +
                  line);
    }
  }
  const double busy_mean = busy_sum / static_cast<double>(ranks.size());

  result.add("driver.rounds", static_cast<double>(traced.rounds), "count");
  result.add("driver.barrier_wait_s", barrier, "s");
  result.add("driver.imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0,
             "ratio");
  result.add("engine.init_s", phase_self["superstep.init"], "s");
  result.add("engine.magnitude_s", phase_self["superstep.magnitude"], "s");
  result.add("engine.zero_fill_s",
             phase_self["superstep.zero_fill"] + phase_self["superstep.done"],
             "s");
  result.add("msg.send_s", static_cast<double>(traced.send_ns) * 1e-9, "s");
  result.add("msg.recv_s", static_cast<double>(traced.recv_ns) * 1e-9, "s");
  result.add("msg.recv_empty_ratio",
             traced.recvs ? static_cast<double>(traced.empty_recvs) /
                                static_cast<double>(traced.recvs)
                          : 0.0,
             "ratio");
  result.add("db.gather_s", gather, "s");
}

void add_run_info_metrics(const std::vector<para::LevelRunInfo>& levels,
                          Result& result) {
  para::EngineStats engine;
  para::StoreStats store;
  for (const para::LevelRunInfo& info : levels) {
    engine += info.total;
    store += info.store_total;
  }
  result.add("msg.messages", static_cast<double>(engine.messages_sent),
             "count");
  result.add("msg.payload_bytes", static_cast<double>(engine.payload_bytes),
             "bytes");
  result.add("msg.records_per_message", engine.records_per_message(),
             "records");
  result.add("store.faults", static_cast<double>(store.faults), "count");
  result.add("store.fault_bytes", static_cast<double>(store.fault_bytes),
             "bytes");
  result.add("store.evictions", static_cast<double>(store.evictions),
             "count");
  result.add("store.spill_bytes", static_cast<double>(store.spill_bytes),
             "bytes");
  result.add("store.queue_spilled_records",
             static_cast<double>(store.queue_spilled_records), "count");
  result.add("store.peak_resident_bytes",
             static_cast<double>(store.peak_resident_bytes), "bytes");
}

void add_obs_metrics(const obs::Snapshot& delta, Result& result) {
  using obs::Id;
  result.add("engine.scan_s", delta[Id::kEngineScanSeconds].seconds(), "s");
  result.add("engine.seed_s", delta[Id::kEngineSeedSeconds].seconds(), "s");
  result.add("engine.drain_s", delta[Id::kEngineDrainSeconds].seconds(), "s");
  result.add("exec.sweep_positions",
             static_cast<double>(delta[Id::kEngineKernelSweepPositions].value),
             "count");
  result.add("exec.sweep_matches",
             static_cast<double>(delta[Id::kEngineKernelSweepMatches].value),
             "count");
  result.add("exec.chunks",
             static_cast<double>(delta[Id::kEngineScanChunks].value),
             "count");
}

/// The traced run: the traced build between two untraced ones, then one
/// 1x1 build for the scaling efficiency, each between two reference runs,
/// and a save of the result.  The overhead and the efficiency compare
/// with the mean of the two untraced builds.
void run_traced(const Options& options, const BuildSpec& spec,
                const TempDir& tmp, Scratch& scratch, Normalizer& clock,
                Result& result) {
  BuildOutcome untraced;
  ++result.attempted;
  if (!checked_build(spec, spec.ranks, spec.threads, scratch,
                     "untraced build", result, untraced)) {
    ++result.failed;
    return;
  }
  const double before_s = untraced.seconds * clock.next_factor();
  add_run_info_metrics(untraced.levels, result);

  ++result.attempted;
  const std::string dir = scratch.next();
  const obs::Snapshot before = obs::snapshot();
  TracedOutcome traced = traced_build(spec, dir);
  add_obs_metrics(obs::snapshot() - before, result);
  if (!Scratch::release(dir)) {
    result.fail("traced build: scratch directory not empty after the build");
  }
  if (!check_pinned(traced.database, spec.level, "traced build", result)) {
    return;
  }
  const double traced_s = traced.seconds * clock.next_factor();
  add_traced_metrics(spec, traced, options.trace_path, result);

  BuildOutcome after;
  ++result.attempted;
  if (!checked_build(spec, spec.ranks, spec.threads, scratch,
                     "second untraced build", result, after)) {
    ++result.failed;
    return;
  }
  const double untraced_s =
      (before_s + after.seconds * clock.next_factor()) / 2.0;
  result.notes.push_back("normalized build seconds: untraced (mean) " +
                         std::to_string(untraced_s) + ", traced " +
                         std::to_string(traced_s));

  BuildOutcome serial;
  ++result.attempted;
  if (!checked_build(spec, 1, 1, scratch, "1x1 build", result, serial)) {
    ++result.failed;
    return;
  }
  const double serial_s = serial.seconds * clock.next_factor();
  result.add("driver.scaling_efficiency",
             serial_s /
                 (static_cast<double>(spec.ranks * spec.threads) * untraced_s),
             "ratio");
  result.add("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
  std::vector<double> references = clock.measured();
  result.add("host.reference_s", median(references), "s");

  const std::string path = tmp.path() + "/build.db";
  const std::uint64_t start = now_ns();
  db::save(traced.database, path, db::Format{.version = 3});
  result.add("db.save_s", static_cast<double>(now_ns() - start) * 1e-9, "s");
  result.add("db.file_bytes",
             static_cast<double>(std::filesystem::file_size(path)), "bytes");
}

}  // namespace

Result run_build_workload(const Options& options, Reference& reference) {
  const BuildSpec spec = spec_for(options);
  Result result;

  // Set-up, timed kSetups times: the run's temporary directory and the
  // game's level objects.  The first starts at entry to main().  It is
  // almost all directory syscalls, whose speed drifts with the host's
  // disk, so the median is rescaled by the median of a mkdir + rmdir pair
  // timed after each set-up.
  constexpr int kSetups = 50;
  std::vector<double> setup_seconds;
  std::vector<double> directory_seconds;
  std::optional<TempDir> tmp;
  std::uint64_t positions = 0;
  std::uint64_t setup_start = options.process_start_ns;
  for (int i = 0; i < kSetups; ++i) {
    tmp.reset();
    tmp.emplace(options.tmp_root);
    const game::AwariFamily family;
    positions = 0;
    for (int level = 0; level <= spec.level; ++level) {
      positions += family.level(level).size();
    }
    setup_seconds.push_back(static_cast<double>(now_ns() - setup_start) *
                            1e-9);
    directory_seconds.push_back(directory_reference_seconds(options.tmp_root));
    setup_start = now_ns();
  }
  const double setup_s = median(setup_seconds) * kNominalDirectorySeconds /
                         median(directory_seconds);
  Scratch scratch(*tmp, spec);
  result.notes.push_back("positions per build: " + std::to_string(positions));

  Normalizer clock(reference, Reference::Kind::kMemory);
  clock.start();
  if (options.traced()) {
    run_traced(options, spec, *tmp, scratch, clock, result);
    return result;
  }

  // Builds until --seconds have passed, references included.
  const std::size_t min_builds = options.smoke ? 2 : 3;
  std::vector<double> measured;
  std::vector<double> normalized;
  const std::uint64_t start = now_ns();
  while (result.correct &&
         (normalized.size() < min_builds ||
          static_cast<double>(now_ns() - start) * 1e-9 < options.seconds)) {
    BuildOutcome build;
    ++result.attempted;
    const bool ok = checked_build(spec, spec.ranks, spec.threads, scratch,
                                  "build", result, build);
    const double factor = clock.next_factor();
    if (!build.completed) {
      ++result.failed;  // only injected faults crash a build; stop here
      break;
    }
    if (!ok) continue;
    measured.push_back(build.seconds);
    normalized.push_back(build.seconds * factor);
  }
  std::string times = "build seconds (measured/normalized):";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    times += " " + std::to_string(measured[i]) + "/" +
             std::to_string(normalized[i]);
  }
  result.notes.push_back(times);
  double normalized_sum = 0.0;
  for (const double s : normalized) normalized_sum += s;
  const std::string builds = "builds=" + std::to_string(normalized.size());

  std::vector<double> references = clock.measured();
  result.add("setup_s", setup_s, "s");
  result.add("op_p50_ms", 1e3 * median(normalized), "ms", builds);
  result.add("op_p99_ms", 1e3 * percentile(normalized, 0.99), "ms",
             "slowest build");
  result.add("ops_per_s",
             static_cast<double>(normalized.size()) / normalized_sum, "1/s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.extra.push_back(
      {"measured_setup_s", median(setup_seconds), "s", "median"});
  result.extra.push_back(
      {"measured_op_p50_ms", 1e3 * median(measured), "ms", builds});
  result.extra.push_back(
      {"reference_s", median(references), "s", "memory loop, median"});
  return result;
}

}  // namespace retra::e2e
