// retra_bench — the bench-suite runner behind the BENCH_*.json artifacts.
//
// Runs a named suite of simulated builds and writes one retra-bench-v1
// artifact (see docs/METRICS.md).  The "smoke" suite is small enough for
// CI, where its artifact is cross-checked against bench_t3_comm run with
// the same configuration: both go through simulate_build() and the shared
// emitters in bench/bench_common.hpp, so the level arrays must agree
// exactly.  --validate re-parses any artifact and checks it against the
// schema without running anything.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_net_common.hpp"
#include "retra/net/server.hpp"
#include "retra/ra/builder.hpp"

namespace {

using namespace retra;
using namespace retra::bench;

struct Suite {
  const char* name;
  const char* help;
  int max_level;
  int ranks;
  std::size_t combine_bytes;
  int worker_threads;
  // Per-phase thread splits and the modelled sweep width (P2); zeros
  // inherit worker_threads, 1 lane models the paper's scalar nodes.
  int scan_threads = 0;
  int drain_threads = 0;
  int vector_lanes = 1;
};

constexpr Suite kSuites[] = {
    {"smoke", "CI-sized build (level 7, 4 ranks, 4 KB combining)", 7, 4,
     4096, 1},
    {"t3", "the T3 table's configuration (level 10, 16 ranks)", 10, 16,
     4096, 1},
    {"p1", "the P1 end-to-end configuration (level 8, 4 ranks x 2 workers)",
     8, 4, 4096, 2},
    {"p2",
     "the P2 kernel configuration (level 8, 4 ranks, 2/1 phase split, "
     "16-lane sweeps)",
     8, 4, 4096, 1, 2, 1, 16},
};

/// The "q2" suite is not a simulated build: it saves a small database,
/// serves it over loopback through the in-process retra-net-v1 server,
/// and runs one CI-sized closed-loop plus pipelined load
/// (bench_net_common.hpp — the same core bench_q2_server sweeps with a
/// full CLI).  Its artifact is a micro artifact: empty levels, the net.*
/// and serve.* obs delta in `metrics`.
int run_q2_suite(const std::string& json_path) {
  constexpr int kMaxLevel = 6;
  const db::Database database =
      ra::build_database(game::AwariFamily{}, kMaxLevel);
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "retra_bench_q2.db")
          .string();
  db::save(database, scratch);

  net::ServerConfig config;
  config.workers = 2;
  auto opened = net::Server::open(scratch, config);
  if (!opened.ok) {
    std::fprintf(stderr, "cannot serve %s: %s\n", scratch.c_str(),
                 opened.error.c_str());
    return 1;
  }
  net::Server& server = *opened.server;
  std::printf("suite q2: levels 0..%d over 127.0.0.1:%u, %d workers\n",
              kMaxLevel, static_cast<unsigned>(server.port()),
              config.workers);

  NetLoadConfig load;
  load.connections = 2;
  load.requests_per_connection = 400;
  const obs::Snapshot before = obs::snapshot();
  for (const std::size_t pipeline : {std::size_t{1}, std::size_t{4}}) {
    load.pipeline = pipeline;
    const NetLoadResult result = run_net_load(
        "127.0.0.1", server.port(), server.store().level_sizes(), load);
    if (!result.ok) {
      std::fprintf(stderr, "q2 load failed: %s\n", result.error.c_str());
      return 1;
    }
    std::printf(
        "  pipeline %zu: %zu round trips, p50 %.1f us, p99 %.1f us, "
        "%.1f klookups/s\n",
        pipeline, result.latencies_us.size(), result.percentile(0.50),
        result.percentile(0.99), result.lookups_per_second() / 1e3);
  }
  const obs::Snapshot delta = obs::snapshot() - before;
  server.stop();
  std::remove(scratch.c_str());

  BenchRunMeta meta;
  meta.suite = "q2";
  meta.bench = "retra_bench";
  meta.max_level = kMaxLevel;
  meta.ranks = 1;
  meta.combine_bytes = 0;
  std::string path = json_path;
  if (path.empty()) path = "BENCH_q2.json";
  return write_micro_artifact(path, meta, delta) ? 0 : 1;
}

const Suite* find_suite(const std::string& name) {
  for (const Suite& suite : kSuites) {
    if (name == suite.name) return &suite;
  }
  return nullptr;
}

std::string read_file(const std::string& path, bool& ok) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ok = f != nullptr;
  if (!f) return text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Bench-suite runner: builds awari levels under the cluster "
      "simulator and writes a retra-bench-v1 JSON artifact (see "
      "docs/METRICS.md).");
  add_model_flags(cli);
  cli.flag("suite", "smoke", "suite to run (--list shows all)");
  cli.flag("json", "", "artifact path (default BENCH_<suite>.json)");
  cli.flag("validate", "",
           "validate an existing artifact against the schema and exit");
  cli.flag("list", "false", "list the available suites and exit");
  cli.parse(argc, argv);

  if (cli.boolean("list")) {
    for (const Suite& suite : kSuites) {
      std::printf("%-8s %s\n", suite.name, suite.help);
    }
    std::printf("%-8s %s\n", "q2",
                "loopback network serving load (level 6, 2 connections)");
    return 0;
  }

  if (const std::string path = cli.str("validate"); !path.empty()) {
    bool readable = false;
    const std::string text = read_file(path, readable);
    if (!readable) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::string error;
    if (!validate_bench_artifact(text, &error)) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("%s: valid %s\n", path.c_str(), kBenchSchema);
    return 0;
  }

  const std::string suite_name = cli.str("suite");
  if (suite_name == "q2") return run_q2_suite(cli.str("json"));
  const Suite* suite = find_suite(suite_name);
  if (!suite) {
    std::fprintf(stderr, "unknown suite \"%s\" (--list shows all)\n",
                 suite_name.c_str());
    return 2;
  }
  sim::ClusterModel model = model_from(cli);
  model.machine.worker_threads = suite->worker_threads;
  model.machine.scan_threads = suite->scan_threads;
  model.machine.drain_threads = suite->drain_threads;
  model.machine.vector_lanes = suite->vector_lanes;
  std::string path = cli.str("json");
  if (path.empty()) path = "BENCH_" + suite_name + ".json";

  std::printf("suite %s: level %d, %d ranks x %d workers, %zu-byte "
              "combining\n",
              suite->name, suite->max_level, suite->ranks,
              suite->worker_threads, suite->combine_bytes);
  print_model(model);

  const obs::Snapshot before = obs::snapshot();
  const auto run = simulate_build(suite->max_level, suite->ranks,
                                  suite->combine_bytes, model,
                                  para::PartitionScheme::kCyclic,
                                  /*replicate_lower=*/false,
                                  suite->worker_threads,
                                  suite->scan_threads,
                                  suite->drain_threads);
  const obs::Snapshot delta = obs::snapshot() - before;

  BenchRunMeta meta;
  meta.suite = suite_name;
  meta.bench = "retra_bench";
  meta.max_level = suite->max_level;
  meta.ranks = suite->ranks;
  meta.combine_bytes = suite->combine_bytes;
  const std::string json = bench_artifact_json(meta, model, run, delta);
  std::string error;
  if (!validate_bench_artifact(json, &error)) {
    std::fprintf(stderr, "internal error: artifact fails validation: %s\n",
                 error.c_str());
    return 1;
  }
  if (!write_text_file(path, json)) return 1;

  const para::LevelRunInfo& top = run.levels.back();
  std::printf(
      "built %zu levels, %.3f s virtual; top level: %llu positions, "
      "%llu messages, %.1f records/msg\n",
      run.levels.size(), run.total_time_s(),
      static_cast<unsigned long long>(top.size),
      static_cast<unsigned long long>(top.total.messages_sent),
      top.total.records_per_message());
  std::printf("wrote %s (%s)\n", path.c_str(), kBenchSchema);
  return 0;
}
