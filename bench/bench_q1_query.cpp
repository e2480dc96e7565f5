// Q1 — Query-serving throughput and cache behaviour.
//
// The finished database's whole purpose is query-time perfect play
// (Romein & Bal 2003 serve the solved awari database interactively);
// this bench measures what the serving layer delivers: single-lookup and
// batched throughput against a file-backed QueryService, cold (every
// level faulted from disk) and hot (resident within the byte budget),
// with the dense in-memory database as the reference ceiling.
//
//   $ bench_q1_query --level=8 --budget-kb=16 --queries=200000
//   $ bench_q1_query --db=/tmp/awari10.db --batch=64 --json=BENCH_q1.json
//
// When building its own scratch database (no --db), the bench saves it
// as RTRADB03 at the default block geometry and also runs a block-size
// sweep: the same levels saved again at the largest geometry
// (kMaxBlockPositions, so one block per level at these sizes), per-level
// stored sizes of both files against the decoded bytes, and point-lookup
// p50/p99 latency through each file under the same budget
// (--compare=false skips it).
//
// --json writes a retra-bench-v1 artifact whose metrics array is the obs
// delta of the scratch save, the served phases and the sweep —
// serve.lookups and friends cover both files, db.compress.* both saves,
// and serve.blockcache.* every fault; see tests/test_serve.cpp for the
// exact-reconcile version of the pipeline.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "retra/ra/builder.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/rng.hpp"
#include "retra/support/timer.hpp"

namespace {

using namespace retra;

struct Workload {
  std::vector<int> levels;
  std::vector<idx::Index> indices;
};

/// A reproducible query stream: uniform over levels 1..top (level 0 is a
/// single position), uniform over each level's indices.
Workload make_workload(const serve::ValueSource& source, int queries,
                       std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Workload work;
  work.levels.reserve(static_cast<std::size_t>(queries));
  work.indices.reserve(static_cast<std::size_t>(queries));
  const int top = source.num_levels() - 1;
  for (int q = 0; q < queries; ++q) {
    const int level = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(top)));
    work.levels.push_back(level);
    work.indices.push_back(rng.below(source.level_size(level)));
  }
  return work;
}

struct PhaseResult {
  std::uint64_t lookups = 0;
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;
  double seconds = 0;
};

PhaseResult run_single(serve::QueryService& service, const Workload& work) {
  const auto before = service.stats();
  support::Timer timer;
  db::Value sink = 0;
  for (std::size_t i = 0; i < work.levels.size(); ++i) {
    sink = static_cast<db::Value>(
        sink ^ service.value(work.levels[i], work.indices[i]));
  }
  PhaseResult result;
  result.seconds = timer.seconds();
  const auto after = service.stats();
  result.lookups = after.lookups - before.lookups;
  result.faults = after.faults - before.faults;
  result.evictions = after.evictions - before.evictions;
  // Defeat dead-code elimination of the lookup loop.
  if (sink == INT16_MIN) std::printf("(impossible sink)\n");
  return result;
}

/// Replays the workload through values(): consecutive queries to the same
/// level are coalesced into one batched call of up to `batch` lookups.
PhaseResult run_batched(serve::QueryService& service, const Workload& work,
                        int batch) {
  const auto before = service.stats();
  std::vector<idx::Index> indices;
  std::vector<db::Value> out;
  indices.reserve(static_cast<std::size_t>(batch));
  out.resize(static_cast<std::size_t>(batch));
  support::Timer timer;
  std::size_t i = 0;
  while (i < work.levels.size()) {
    const int level = work.levels[i];
    indices.clear();
    while (i < work.levels.size() && work.levels[i] == level &&
           indices.size() < static_cast<std::size_t>(batch)) {
      indices.push_back(work.indices[i]);
      ++i;
    }
    service.values(level, indices,
                   std::span<db::Value>(out.data(), indices.size()));
  }
  PhaseResult result;
  result.seconds = timer.seconds();
  const auto after = service.stats();
  result.lookups = after.lookups - before.lookups;
  result.faults = after.faults - before.faults;
  result.evictions = after.evictions - before.evictions;
  return result;
}

void add_row(support::Table& table, const char* phase,
             const PhaseResult& result) {
  table.row()
      .add(phase)
      .add(static_cast<std::int64_t>(result.lookups))
      .add(static_cast<std::int64_t>(result.faults))
      .add(static_cast<std::int64_t>(result.evictions))
      .add(result.seconds <= 0
               ? 0.0
               : static_cast<double>(result.lookups) / result.seconds / 1e6);
}

// ---- block-size sweep ---------------------------------------------

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
};

/// Times each of the workload's first `samples` point lookups through a
/// fresh budgeted service over `path` and reports exact percentiles.
LatencyStats measure_latency(const std::string& path, std::uint64_t budget,
                             const Workload& work, int samples) {
  serve::QueryServiceConfig config;
  config.budget_bytes = budget;
  auto opened = serve::QueryService::open(path, config);
  if (!opened.ok) {
    std::fprintf(stderr, "sweep cannot serve %s: %s\n", path.c_str(),
                 opened.error.c_str());
    std::exit(1);
  }
  serve::QueryService& service = *opened.service;
  const std::size_t n =
      std::min(work.levels.size(), static_cast<std::size_t>(samples));
  std::vector<double> lat;
  lat.reserve(n);
  db::Value sink = 0;
  for (std::size_t i = 0; i < n; ++i) {
    support::Timer timer;
    sink = static_cast<db::Value>(
        sink ^ service.value(work.levels[i], work.indices[i]));
    lat.push_back(timer.seconds() * 1e6);
  }
  if (sink == INT16_MIN) std::printf("(impossible sink)\n");
  std::sort(lat.begin(), lat.end());
  LatencyStats stats;
  if (!lat.empty()) {
    stats.p50_us = lat[lat.size() / 2];
    stats.p99_us = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  return stats;
}

/// "raw:3 freq:12" — blocks of the level per compression scheme.
std::string scheme_histogram(const db::LevelLocation& location) {
  int counts[db::kBlockSchemeCount] = {};
  for (const db::BlockLocation& block : location.blocks) {
    ++counts[static_cast<int>(block.scheme)];
  }
  static constexpr const char* kNames[db::kBlockSchemeCount] = {"raw", "rle",
                                                                "freq"};
  std::string text;
  for (int s = 0; s < db::kBlockSchemeCount; ++s) {
    if (counts[s] == 0) continue;
    if (!text.empty()) text += ' ';
    text += kNames[s];
    text += ':';
    text += std::to_string(counts[s]);
  }
  return text.empty() ? "-" : text;
}

/// Saves `database` again at the largest block geometry next to the
/// scratch file (default geometry), prints the per-level table of both
/// files' stored bytes against the decoded bytes, and the p50/p99
/// point-lookup latencies of both files under the same budget.
void run_sweep(const db::Database& database, const std::string& path,
               std::uint64_t budget, const Workload& work, int samples) {
  const std::string large_path = path + ".large";
  db::save(database, large_path,
           db::Format{.block_positions = db::kMaxBlockPositions});
  const db::FileIndex small = db::scan(path);
  const db::FileIndex large = db::scan(large_path);

  std::printf(
      "\nblock-size sweep: %u vs %u positions per block (%d point "
      "lookups, same budget):\n",
      db::kDefaultBlockPositions, db::kMaxBlockPositions, samples);
  support::Table table({"level", "decoded bytes", "stored", "ratio",
                        "schemes", "stored (large)", "ratio (large)",
                        "schemes (large)"});
  const auto ratio = [](const db::LevelLocation& location) {
    return location.payload_bytes == 0
               ? 1.0
               : static_cast<double>(location.decoded_bytes()) /
                     static_cast<double>(location.payload_bytes);
  };
  for (std::size_t l = 0; l < small.levels.size(); ++l) {
    const db::LevelLocation& at_default = small.levels[l];
    const db::LevelLocation& at_large = large.levels[l];
    table.row()
        .add(at_default.level)
        .add(support::with_thousands(at_default.decoded_bytes()))
        .add(support::with_thousands(at_default.payload_bytes))
        .add(ratio(at_default))
        .add(scheme_histogram(at_default))
        .add(support::with_thousands(at_large.payload_bytes))
        .add(ratio(at_large))
        .add(scheme_histogram(at_large));
  }
  table.print();
  const auto file_bytes = [](const std::string& p) {
    return support::with_thousands(
        static_cast<std::uint64_t>(std::filesystem::file_size(p)));
  };
  std::printf(
      "file bytes: decoded %s, %u-position blocks %s, %u-position blocks "
      "%s\n",
      support::with_thousands(small.total_decoded_bytes()).c_str(),
      db::kDefaultBlockPositions, file_bytes(path).c_str(),
      db::kMaxBlockPositions, file_bytes(large_path).c_str());

  const LatencyStats at_default =
      measure_latency(path, budget, work, samples);
  const LatencyStats at_large =
      measure_latency(large_path, budget, work, samples);
  std::printf(
      "latency: %u-position blocks p50 %.2fus p99 %.2fus, %u-position "
      "blocks p50 %.2fus p99 %.2fus\n",
      db::kDefaultBlockPositions, at_default.p50_us, at_default.p99_us,
      db::kMaxBlockPositions, at_large.p50_us, at_large.p99_us);
  std::remove(large_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Query-serving bench: cold/hot/batched lookup throughput of the "
      "file-backed QueryService under a residency budget.");
  cli.flag("db", "", "serve this database file (default: build and save)");
  cli.flag("level", "8", "levels to build when no --db is given");
  cli.flag("budget-kb", "16", "block-cache budget (0 = unlimited)");
  cli.flag("queries", "200000", "lookups per phase");
  cli.flag("batch", "64", "max lookups per batched values() call");
  cli.flag("seed", "7", "workload random seed");
  cli.flag("compare", "true",
           "run the block-size sweep (build mode only)");
  cli.flag("sweep-queries", "50000", "point lookups per sweep measurement");
  bench::add_output_flags(cli);
  cli.parse(argc, argv);

  const int queries = static_cast<int>(cli.integer("queries"));
  const int batch = static_cast<int>(cli.integer("batch"));

  // Resolve the database file: an existing one via --db, otherwise build
  // in memory and save to a scratch file.  The artifact's obs window
  // opens before that save, so it carries its db.compress.* counts.
  std::string path = cli.str("db");
  std::string scratch;
  db::Database database;
  if (path.empty()) {
    const int level = static_cast<int>(cli.integer("level"));
    database = ra::build_database(game::AwariFamily{}, level);
    scratch = (std::filesystem::temp_directory_path() /
               ("bench_q1_awari" + std::to_string(level) + ".db"))
                  .string();
    path = scratch;
  }
  const obs::Snapshot before = obs::snapshot();
  if (!scratch.empty()) {
    db::save(database, scratch);
    std::printf("built levels 0..%d and saved them to %s\n",
                database.num_levels() - 1, path.c_str());
  }

  serve::QueryServiceConfig config;
  config.budget_bytes =
      static_cast<std::uint64_t>(cli.integer("budget-kb")) * 1024;
  auto opened = serve::QueryService::open(path, config);
  if (!opened.ok) {
    std::fprintf(stderr, "cannot serve %s: %s\n", path.c_str(),
                 opened.error.c_str());
    return 1;
  }
  serve::QueryService& service = *opened.service;
  std::printf(
      "serving %s: %d levels, %llu stored bytes, budget %llu bytes\n",
      path.c_str(), service.num_levels(),
      static_cast<unsigned long long>(service.index().total_payload_bytes()),
      static_cast<unsigned long long>(config.budget_bytes));

  const Workload work = make_workload(
      service, queries, static_cast<std::uint64_t>(cli.integer("seed")));

  // Cold: first touch of every level comes off the file.
  const PhaseResult cold = run_single(service, work);
  // Hot: identical stream again — faults now measure budget thrash only.
  const PhaseResult hot = run_single(service, work);
  // Batched: same stream through values() in level-coalesced batches.
  const PhaseResult batched = run_batched(service, work, batch);

  support::Table table(
      {"phase", "lookups", "faults", "evictions", "Mlookups/s"});
  add_row(table, "cold single", cold);
  add_row(table, "hot single", hot);
  add_row(table, std::string("batched x" + std::to_string(batch)).c_str(),
          batched);
  table.print();
  std::printf(
      "\nresident after run: %llu bytes in %zu levels\n",
      static_cast<unsigned long long>(service.stats().resident_bytes),
      service.resident_levels().size());

  // Block-size sweep (inside the artifact's obs window, so the metrics
  // delta carries its db.compress.* and serve.blockcache.* too).
  if (cli.boolean("compare") && !scratch.empty()) {
    run_sweep(database, scratch, config.budget_bytes, work,
              static_cast<int>(cli.integer("sweep-queries")));
  }
  const obs::Snapshot delta = obs::snapshot() - before;

  bench::BenchRunMeta meta;
  meta.suite = "q1";
  meta.bench = "bench_q1_query";
  meta.max_level = service.num_levels() - 1;
  meta.ranks = 1;
  meta.combine_bytes = 0;
  if (!bench::write_micro_artifact(cli.str("json"), meta, delta)) return 1;

  if (!scratch.empty()) std::remove(scratch.c_str());
  return 0;
}
