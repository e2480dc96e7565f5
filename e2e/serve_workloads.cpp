// serve-uniform, serve-oracle: closed-loop position queries over
// retra-net-v1 against an in-process net::Server.
//
// Set-up builds levels 0..12 with ra::build_database, saves them as
// RTRADB03, opens the server, connects the clients and generates every
// request from the seed, so the server only ever sees frames.  Two client
// threads then each keep one request in flight (closed loop: an oracle's
// callers are game programs that wait for each answer).  A BUSY shed is
// retried the way net::ClientValueSource retries it, so a request fails
// only on an error, a transport failure or exhausted retries.
//
// The timed part runs in short segments with a loopback reference run
// between them (reference.hpp); every latency is rescaled by its
// segment's factor.  The first tenth of the run is an untimed warm-up.
// After timing, every answer is compared with the in-memory database.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "reference.hpp"
#include "retra/db/db_io.hpp"
#include "retra/game/awari.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/net/client.hpp"
#include "retra/net/server.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/ra/builder.hpp"
#include "retra/ra/oracle.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/rng.hpp"
#include "trace.hpp"

namespace retra::e2e {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::uint64_t kBudgetBytes = 256 * 1024;
constexpr int kSetups = 3;
/// net::ClientValueSource's BUSY policy: sleep 1 ms, one more every 8
/// tries, give up after 64 retries.
constexpr int kBusyRetries = 64;
/// examples/selfplay's game length cut-off.
constexpr int kMaxPlies = 200;
constexpr double kSegmentSeconds = 0.75;
// Stream lengths per client and second of run, above the rates this loop
// reaches on a 4-core host; a stream that still runs out wraps around.
constexpr double kUniformPerSecond = 40000.0;
constexpr double kOraclePerSecond = 25000.0;

struct ServeSpec {
  int level = 12;
  bool oracle = false;
};

struct Key {
  std::uint32_t index = 0;  // every level served has fewer than 2^32
  std::int32_t level = 0;
};

/// One client's requests: keys for serve-uniform, boards for
/// serve-oracle.
struct Stream {
  std::vector<Key> keys;
  std::vector<game::Board> boards;

  std::size_t size() const {
    return keys.empty() ? boards.size() : keys.size();
  }
};

Stream uniform_stream(int max_level, std::uint64_t seed, std::size_t count) {
  support::Xoshiro256 rng(seed);
  Stream stream;
  stream.keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int level = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(max_level) + 1));
    stream.keys.push_back(
        {static_cast<std::uint32_t>(rng.below(idx::level_size(level))),
         level});
  }
  return stream;
}

/// examples/selfplay's games: a random `stones`-stone board (each stone
/// in a random pit), then the database-perfect player against greedy
/// capture, the perfect side moving first, for at most kMaxPlies plies.
/// Every position where the perfect side asks the oracle is one request;
/// the games are played against `reference`, before timing.
Stream oracle_stream(serve::ValueSource& reference, int stones,
                     std::uint64_t seed, std::size_t count) {
  support::Xoshiro256 rng(seed);
  Stream stream;
  stream.boards.reserve(count);
  while (stream.boards.size() < count) {
    game::Board board{};
    for (int s = 0; s < stones; ++s) {
      const auto pit = static_cast<std::size_t>(rng.below(game::kPits));
      board[pit] = static_cast<std::uint8_t>(board[pit] + 1);
    }
    for (int ply = 0; ply < kMaxPlies && stream.boards.size() < count &&
                      !game::is_terminal(board);
         ++ply) {
      if (ply % 2 == 0) {
        stream.boards.push_back(board);
        board = ra::evaluate_moves(reference, board).front().after;
      } else {
        const game::MoveList moves = game::legal_moves(board);
        int greedy = 0;
        for (int i = 1; i < moves.count; ++i) {
          if (moves.items[i].captured > moves.items[greedy].captured) {
            greedy = i;
          }
        }
        board = moves.items[greedy].after;
      }
    }
  }
  return stream;
}

std::uint64_t evals_digest(const std::vector<ra::MoveEval>& evals) {
  std::vector<std::int32_t> words;
  for (const ra::MoveEval& eval : evals) {
    words.push_back(eval.pit);
    words.push_back(eval.captured);
    words.push_back(eval.value);
    for (const std::uint8_t pit : eval.after) words.push_back(pit);
  }
  return db::fnv1a(words.data(), words.size() * sizeof(std::int32_t));
}

/// What one client's requests cost beyond the answer.
struct ClientCounters {
  std::uint64_t busy_retries = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t lookups = 0;
  std::string transport_error;
};

/// Runs one round trip until it is answered, retrying BUSY sheds with
/// kBusyRetries' policy.  False on any other error, a transport failure
/// or exhausted retries.
template <typename RoundTrip>
bool with_busy_retry(RoundTrip&& round_trip, ClientCounters& counters) {
  for (int attempt = 0;; ++attempt) {
    const net::Client::Status status = round_trip();
    ++counters.round_trips;
    if (status.ok()) return true;
    if (!status.transport.empty()) {
      counters.transport_error = status.transport;
      return false;
    }
    if (status.code != net::ErrorCode::kBusy || attempt >= kBusyRetries) {
      return false;
    }
    ++counters.busy_retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt / 8));
  }
}

/// serve::ValueSource over net::Client::batch_query, one answered round
/// trip per values() call.  After a failed round trip the request is
/// failed and makes no further round trips.
class NetSource final : public serve::ValueSource {
 public:
  NetSource(net::Client& client, int levels, ClientCounters& counters)
      : client_(client), levels_(levels), counters_(counters) {}

  int num_levels() const override { return levels_; }
  std::uint64_t level_size(int level) const override {
    return idx::level_size(level);
  }
  serve::Value value(int level, idx::Index index) override {
    serve::Value out = 0;
    values(level, std::span<const idx::Index>(&index, 1),
           std::span<serve::Value>(&out, 1));
    return out;
  }
  void values(int level, std::span<const idx::Index> indices,
              std::span<serve::Value> out) override {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(
                                             indices.size()),
              serve::Value{0});
    if (failed_) return;
    std::optional<ScopedSpan> span;
    if (traced_) span.emplace("net.batch_query");
    counters_.lookups += indices.size();
    failed_ = !with_busy_retry(
        [&] {
          return client_.batch_query(static_cast<std::uint32_t>(level),
                                     indices, reply_);
        },
        counters_);
    if (!failed_) std::copy(reply_.begin(), reply_.end(), out.begin());
  }

  void begin_request(bool traced) {
    failed_ = false;
    traced_ = traced;
  }
  bool failed() const { return failed_; }

 private:
  net::Client& client_;
  const int levels_;
  ClientCounters& counters_;
  std::vector<serve::Value> reply_;
  bool failed_ = false;
  bool traced_ = false;
};

/// A timed request's latency and the segment it ran in.
struct Sample {
  double latency_us = 0.0;
  std::uint32_t segment = 0;
};

/// What one client thread did, over all segments.  Request i asked
/// stream entry i mod stream size.
struct ClientLog {
  std::vector<bool> answered;
  std::vector<serve::Value> values;    // serve-uniform
  std::vector<std::uint64_t> digests;  // serve-oracle
  std::vector<Sample> samples;         // timed requests only
  std::uint64_t failed = 0;
  ClientCounters counters;

  std::size_t requests() const { return answered.size(); }
};

/// Allocates and writes room for `count` elements, then empties the
/// vector: pushes up to `count` neither reallocate inside a timed request
/// nor make the process's peak memory depend on how many requests the
/// run completes.
template <typename T>
void pretouch(std::vector<T>& log, std::size_t count) {
  log.assign(count, T{});
  log.clear();
}

/// One segment of the run, as the client threads see it; end_ns 0 tells
/// them to exit.
struct Segment {
  std::uint64_t end_ns = 0;
  bool timed = false;
  bool traced = false;
  std::uint32_t index = 0;  // among the timed segments
};

/// Sends requests until the segment ends, continuing the stream where the
/// segment before stopped.
void run_segment(bool oracle, net::Client& client, NetSource& source,
                 const Stream& stream, const Segment& segment,
                 ClientLog& log) {
  std::vector<ra::MoveEval> evals;
  while (client.connected()) {
    const std::uint64_t start = now_ns();
    if (start >= segment.end_ns) break;
    const std::size_t entry = log.requests() % stream.size();
    std::optional<ScopedSpan> request;
    if (segment.traced) {
      current_context().trace = next_span_id();
      request.emplace("request");
    }
    bool ok = false;
    if (oracle) {
      source.begin_request(segment.traced);
      evals = ra::evaluate_moves(source, stream.boards[entry]);
      ok = !source.failed();
      log.digests.push_back(ok ? evals_digest(evals) : 0);
    } else {
      const Key key = stream.keys[entry];
      db::Value value = db::kUnknown;
      std::optional<ScopedSpan> round_trip;
      if (segment.traced) round_trip.emplace("net.query");
      ++log.counters.lookups;
      ok = with_busy_retry(
          [&] {
            return client.query(static_cast<std::uint32_t>(key.level),
                                key.index, value);
          },
          log.counters);
      log.values.push_back(value);
    }
    request.reset();
    const std::uint64_t end = now_ns();
    log.answered.push_back(ok);
    if (!ok) ++log.failed;
    if (segment.timed) {
      log.samples.push_back(
          {static_cast<double>(end - start) * 1e-3, segment.index});
    }
  }
}

/// The client threads, alive for the whole run (threads made per segment
/// would each touch a fresh malloc arena and make peak RSS wander).  Each
/// run() publishes a segment, lets both clients run it and returns when
/// both are done; the destructor tells them to exit and joins them.
class ClientThreads {
 public:
  ClientThreads(bool oracle, int levels,
                std::vector<std::unique_ptr<net::Client>>& clients,
                const std::vector<Stream>& streams,
                std::vector<ClientLog>& logs)
      : sync_(static_cast<std::ptrdiff_t>(clients.size()) + 1) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads_.emplace_back([&, oracle, levels, c] {
        current_context() =
            SpanContext{0, 0, static_cast<std::uint32_t>(101 + c)};
        NetSource source(*clients[c], levels, logs[c].counters);
        while (true) {
          sync_.arrive_and_wait();
          if (segment_.end_ns == 0) return;
          run_segment(oracle, *clients[c], source, streams[c], segment_,
                      logs[c]);
          sync_.arrive_and_wait();
        }
      });
    }
  }
  ~ClientThreads() {
    segment_ = Segment{};
    sync_.arrive_and_wait();
    for (std::thread& thread : threads_) thread.join();
  }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  void run(const Segment& segment) {
    segment_ = segment;
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
  }

 private:
  std::barrier<> sync_;
  Segment segment_;  // written only while the clients wait at sync_
  std::vector<std::thread> threads_;
};

/// Everything set-up produces; the last of the repeated set-ups serves.
struct ServeSetup {
  db::Database database;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<Stream> streams;
  double save_seconds = 0.0;
};

/// One set-up from `start`; returns its duration without the digest
/// check, or a negative value after recording a failure.
double set_up(const ServeSpec& spec, const Options& options,
              const std::string& path, std::uint64_t start, ServeSetup& out,
              Result& result) {
  out = ServeSetup{};
  out.database = ra::build_database(game::AwariFamily{}, spec.level);
  const std::uint64_t built = now_ns();
  if (!check_pinned(out.database, spec.level, "set-up database", result)) {
    return -1.0;
  }

  const std::uint64_t save_start = now_ns();
  db::save(out.database, path, db::Format{.version = 3});
  out.save_seconds = static_cast<double>(now_ns() - save_start) * 1e-9;

  net::ServerConfig config;
  config.workers = kWorkers;
  config.budget_bytes = kBudgetBytes;
  config.port = 0;
  net::Server::OpenResult opened = net::Server::open(path, config);
  if (!opened.ok) {
    result.fail("cannot serve " + path + ": " + opened.error);
    return -1.0;
  }
  out.server = std::move(opened.server);
  for (int c = 0; c < kClients; ++c) {
    net::Client::ConnectResult connected =
        net::Client::connect("127.0.0.1", out.server->port());
    if (!connected.ok) {
      result.fail("cannot connect: " + connected.error);
      return -1.0;
    }
    out.clients.push_back(std::move(connected.client));
  }
  const double run_seconds = options.seconds * 1.1;
  serve::DatabaseSource reference(out.database);
  for (int c = 0; c < kClients; ++c) {
    const std::uint64_t seed = support::splitmix64(
        options.seed * 0x100 + static_cast<std::uint64_t>(c));
    if (spec.oracle) {
      out.streams.push_back(oracle_stream(
          reference, spec.level, seed,
          static_cast<std::size_t>(kOraclePerSecond * run_seconds) + 1));
    } else {
      out.streams.push_back(uniform_stream(
          spec.level, seed,
          static_cast<std::size_t>(kUniformPerSecond * run_seconds) + 1));
    }
  }
  return static_cast<double>(built - start + now_ns() - save_start) * 1e-9;
}

/// Compares every answered request with the in-memory database; returns
/// the number of mismatches.
std::uint64_t check_answers(const ServeSpec& spec, const ServeSetup& setup,
                            const std::vector<ClientLog>& logs) {
  serve::DatabaseSource reference(setup.database);
  std::uint64_t wrong = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const Stream& stream = setup.streams[c];
    const ClientLog& log = logs[c];
    for (std::size_t i = 0; i < log.requests(); ++i) {
      if (!log.answered[i]) continue;
      const std::size_t entry = i % stream.size();
      if (spec.oracle) {
        if (evals_digest(ra::evaluate_moves(reference, stream.boards[entry])) !=
            log.digests[i]) {
          ++wrong;
        }
      } else {
        const Key key = stream.keys[entry];
        if (reference.value(key.level, key.index) != log.values[i]) ++wrong;
      }
    }
  }
  return wrong;
}

/// Replays the served requests in one thread, alternating clients,
/// against a fresh QueryService with the same budget: per-request
/// latency with the network and server threads taken away.
std::vector<double> replay_in_process(const ServeSpec& spec,
                                      const std::string& path,
                                      const ServeSetup& setup,
                                      const std::vector<ClientLog>& logs,
                                      Result& result) {
  std::vector<double> latency_us;
  serve::QueryServiceConfig config;
  config.budget_bytes = kBudgetBytes;
  serve::QueryService::OpenResult opened =
      serve::QueryService::open(path, config);
  if (!opened.ok) {
    result.fail("cannot open " + path + ": " + opened.error);
    return latency_us;
  }
  serve::QueryService& service = *opened.service;
  current_context() = SpanContext{0, next_span_id(), 0};
  const ScopedSpan replay("serve.replay");
  std::size_t longest = 0;
  for (const ClientLog& log : logs) {
    longest = std::max(longest, log.requests());
  }
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t c = 0; c < logs.size(); ++c) {
      if (i >= logs[c].requests()) continue;
      const Stream& stream = setup.streams[c];
      const std::size_t entry = i % stream.size();
      const std::uint64_t start = now_ns();
      if (spec.oracle) {
        ra::evaluate_moves(service, stream.boards[entry]);
      } else {
        service.value(stream.keys[entry].level, stream.keys[entry].index);
      }
      latency_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    }
  }
  return latency_us;
}

/// The timed segments: wall time, the reference factor measured around
/// each, and whether it was traced.
struct Timeline {
  std::vector<double> seconds;
  std::vector<double> factor;
  std::vector<bool> traced;
};

/// Normalized latencies of the timed requests in segments that were
/// (`traced`) or were not traced, and their requests per normalized
/// second.  The vectors are pretouched to the logs' fixed capacity, so
/// peak RSS does not step with the request count.
struct Latencies {
  std::vector<double> normalized_us;
  std::vector<double> measured_us;
  double requests_per_s = 0.0;
};

Latencies latencies(const std::vector<ClientLog>& logs,
                    const Timeline& timeline, bool traced) {
  Latencies out;
  std::size_t capacity = 0;
  for (const ClientLog& log : logs) capacity += log.samples.capacity();
  pretouch(out.measured_us, capacity);
  pretouch(out.normalized_us, capacity);
  for (const ClientLog& log : logs) {
    for (const Sample& sample : log.samples) {
      if (timeline.traced[sample.segment] != traced) continue;
      out.measured_us.push_back(sample.latency_us);
      out.normalized_us.push_back(sample.latency_us *
                                  timeline.factor[sample.segment]);
    }
  }
  double normalized_seconds = 0.0;
  for (std::size_t s = 0; s < timeline.seconds.size(); ++s) {
    if (timeline.traced[s] == traced) {
      normalized_seconds += timeline.seconds[s] * timeline.factor[s];
    }
  }
  out.requests_per_s =
      static_cast<double>(out.normalized_us.size()) / normalized_seconds;
  return out;
}

void add_layer_metrics(const ServeSpec& spec, const std::string& path,
                       const ServeSetup& setup,
                       const std::vector<ClientLog>& logs,
                       const Timeline& timeline, const Normalizer& clock,
                       const obs::Snapshot& delta, const Options& options,
                       Result& result) {
  using obs::Id;
  std::uint64_t requests = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t lookups = 0;
  for (const ClientLog& log : logs) {
    requests += log.requests();
    round_trips += log.counters.round_trips;
    lookups += log.counters.lookups;
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  result.add("db.save_s", setup.save_seconds, "s");
  result.add("db.file_bytes", count(std::filesystem::file_size(path)),
             "bytes");

  std::vector<double> replay =
      replay_in_process(spec, path, setup, logs, result);
  result.add("serve.lookup_us_p50", percentile(replay, 0.50), "us",
             "samples=" + std::to_string(replay.size()));
  result.add("serve.lookup_us_p99", percentile(replay, 0.99), "us");

  const double hits = count(delta[Id::kServeBlockHits].value);
  const double faults = count(delta[Id::kServeBlockFaults].value);
  result.add("serve.blockcache.hit_ratio", ratio(hits, hits + faults),
             "ratio");
  result.add("serve.blockcache.faults", faults, "count");
  result.add("serve.blockcache.decode_s",
             delta[Id::kServeBlockDecodeSeconds].seconds(), "s");

  const obs::MetricValue& query_us = delta[Id::kNetQueryMicros];
  const obs::MetricValue& batch_us = delta[Id::kNetBatchMicros];
  result.add("net.server_us_mean",
             ratio(count(query_us.sum + batch_us.sum),
                   count(query_us.count + batch_us.count)),
             "us");
  result.add("net.hot_hit_ratio",
             ratio(count(delta[Id::kNetHotHits].value), count(lookups)),
             "ratio");
  result.add("net.shed", count(delta[Id::kNetShed].value), "count");
  result.add("net.coalesced_lookups_mean",
             delta[Id::kNetCoalescedLookups].mean(), "lookups");
  result.add("net.bytes_per_lookup",
             ratio(count(delta[Id::kNetBytesIn].value +
                         delta[Id::kNetBytesOut].value),
                   count(lookups)),
             "bytes");
  result.add("oracle.round_trips_per_request",
             ratio(count(round_trips), count(requests)), "count");
  result.add("oracle.lookups_per_request",
             ratio(count(lookups), count(requests)), "count");
  Latencies untraced = latencies(logs, timeline, false);
  Latencies traced = latencies(logs, timeline, true);
  result.add("trace.overhead_ratio",
             ratio(median(traced.normalized_us),
                   median(untraced.normalized_us)) -
                 1.0,
             "ratio");
  std::vector<double> references = clock.measured();
  result.add("host.reference_s", median(references), "s");

  std::vector<Span> spans = collected_spans();
  for (const std::string& error : analyze_spans(spans).errors) {
    result.fail("trace: " + error);
  }
  if (!write_chrome_trace(spans, options.trace_path)) {
    result.fail("cannot write the trace to " + options.trace_path);
  }
}

void add_end_to_end_metrics(std::vector<double> setup_seconds,
                            const std::vector<ClientLog>& logs,
                            const Timeline& timeline, const Normalizer& clock,
                            Result& result) {
  Latencies untraced = latencies(logs, timeline, false);
  std::vector<double>& latency_us = untraced.normalized_us;
  const std::size_t samples = latency_us.size();
  const double p50 = percentile(latency_us, 0.50);
  const double p99 = percentile(latency_us, 0.99);
  const double p999 = percentile(latency_us, 0.999);
  const auto above = [&](double threshold) {
    return std::to_string(static_cast<std::size_t>(
        latency_us.end() -
        std::upper_bound(latency_us.begin(), latency_us.end(), threshold)));
  };
  // Set-up is rescaled by the median of the run's loopback references: of
  // the references tried, that host-speed estimate tracked it best.
  std::vector<double> references = clock.measured();
  const double reference_s = median(references);
  const double measured_setup_s = median(setup_seconds);
  result.add("setup_s",
             measured_setup_s *
                 Reference::nominal_seconds(Reference::Kind::kLoopback) /
                 reference_s,
             "s");
  result.add("op_p50_ms", p50 * 1e-3, "ms",
             "samples=" + std::to_string(samples));
  result.add("op_p99_ms", p99 * 1e-3, "ms", "above=" + above(p99));
  result.add("ops_per_s", untraced.requests_per_s, "1/s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.extra.push_back(
      {"op_p999_ms", p999 * 1e-3, "ms", "above=" + above(p999)});
  result.extra.push_back(
      {"measured_setup_s", measured_setup_s, "s", "median"});
  result.extra.push_back({"measured_op_p50_ms",
                          percentile(untraced.measured_us, 0.50) * 1e-3, "ms",
                          ""});
  result.extra.push_back({"measured_op_p99_ms",
                          percentile(untraced.measured_us, 0.99) * 1e-3, "ms",
                          ""});
  result.extra.push_back(
      {"reference_s", reference_s, "s", "loopback loop, median"});
}

}  // namespace

Result run_serve_workload(const Options& options, Reference& reference) {
  ServeSpec spec;
  spec.oracle = options.workload == "serve-oracle";
  if (options.smoke) spec.level = 8;
  TempDir tmp(options.tmp_root);
  const std::string path = tmp.path() + "/serve.db";
  Result result;

  // Set-up, repeated; the median is reported and the last one serves.
  std::vector<double> setup_seconds;
  ServeSetup setup;
  std::uint64_t start = options.process_start_ns;
  std::string setup_note = "set-up seconds:";
  for (int i = 0; i < (options.traced() ? 1 : kSetups); ++i) {
    const double seconds = set_up(spec, options, path, start, setup, result);
    if (seconds < 0.0) return result;
    setup_seconds.push_back(seconds);
    setup_note += " " + std::to_string(seconds);
    start = now_ns();
  }
  result.notes.push_back(setup_note);

  // The warm-up, then the timed segments with a reference run around
  // each; the traced run alternates untraced and traced segments, so
  // both see the same cache history.
  const auto segments = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(options.seconds / kSegmentSeconds) & ~1u);
  const double segment_seconds =
      options.seconds / static_cast<double>(segments);
  const obs::Snapshot before = obs::snapshot();
  std::vector<ClientLog> logs(kClients);
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const std::size_t count = setup.streams[c].size();
    pretouch(logs[c].samples, count);
    pretouch(logs[c].values, spec.oracle ? 0 : count);
    pretouch(logs[c].digests, spec.oracle ? count : 0);
  }
  Normalizer clock(reference, Reference::Kind::kLoopback);
  Timeline timeline;
  {
    ClientThreads clients(spec.oracle, spec.level + 1, setup.clients,
                          setup.streams, logs);
    clients.run({now_ns() + static_cast<std::uint64_t>(
                                0.1 * options.seconds * 1e9),
                 false, false, 0});
    clock.start();
    for (std::uint32_t s = 0; s < segments; ++s) {
      const bool traced = options.traced() && s % 2 == 1;
      const std::uint64_t segment_start = now_ns();
      clients.run({segment_start +
                       static_cast<std::uint64_t>(segment_seconds * 1e9),
                   true, traced, s});
      timeline.seconds.push_back(
          static_cast<double>(now_ns() - segment_start) * 1e-9);
      timeline.traced.push_back(traced);
      timeline.factor.push_back(clock.next_factor());
    }
  }
  setup.clients.clear();
  setup.server->stop();  // drains, so the server's counters are final
  const obs::Snapshot delta = obs::snapshot() - before;

  std::uint64_t busy_retries = 0;
  for (const ClientLog& log : logs) {
    result.attempted += log.requests();
    result.failed += log.failed;
    busy_retries += log.counters.busy_retries;
    if (!log.counters.transport_error.empty()) {
      result.notes.push_back("transport failure: " +
                             log.counters.transport_error);
    }
  }
  result.notes.push_back("BUSY retries: " + std::to_string(busy_retries));
  if (const std::uint64_t wrong = check_answers(spec, setup, logs)) {
    result.fail(std::to_string(wrong) +
                " served answers differ from the database");
  }

  if (options.traced()) {
    add_layer_metrics(spec, path, setup, logs, timeline, clock, delta,
                      options, result);
  } else {
    add_end_to_end_metrics(setup_seconds, logs, timeline, clock, result);
  }
  return result;
}

}  // namespace retra::e2e
