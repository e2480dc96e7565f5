// Shared plumbing for the paper-table bench binaries.
//
// Every bench accepts the same model/workload flags so runs are
// reproducible and the cluster model is stated explicitly in the output
// header.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <string>

#include "retra/game/awari_level.hpp"
#include "retra/obs/json.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/para/sim_build.hpp"
#include "retra/sim/cluster_model.hpp"
#include "retra/sim/projection.hpp"
#include "retra/support/cli.hpp"
#include "retra/support/format.hpp"
#include "retra/support/numeric.hpp"
#include "retra/support/table.hpp"

namespace retra::bench {

/// Registers the flags shared by all bench binaries.
inline void add_model_flags(support::Cli& cli) {
  cli.flag("cpu-mops", "10", "modelled CPU rate, million ops/s");
  cli.flag("send-overhead-us", "1000", "per-message sender overhead, us");
  cli.flag("recv-overhead-us", "1000", "per-message receiver overhead, us");
  cli.flag("bandwidth-mbps", "10", "Ethernet segment bandwidth, Mbit/s");
  cli.flag("segments", "4", "bridged Ethernet segments");
}

inline sim::ClusterModel model_from(const support::Cli& cli) {
  sim::ClusterModel model;
  model.machine.cpu_ops_per_second = cli.number("cpu-mops") * 1e6;
  model.machine.send_overhead_s = cli.number("send-overhead-us") * 1e-6;
  model.machine.recv_overhead_s = cli.number("recv-overhead-us") * 1e-6;
  model.net.bandwidth_bps = cli.number("bandwidth-mbps") * 1e6;
  model.net.segments = static_cast<int>(cli.integer("segments"));
  return model;
}

inline void print_model(const sim::ClusterModel& model) {
  std::printf(
      "cluster model: %.0f Mops/s CPU, %.2f ms send / %.2f ms recv "
      "overhead, %d x %.0f Mbit/s Ethernet segments\n",
      model.machine.cpu_ops_per_second / 1e6,
      model.machine.send_overhead_s * 1e3,
      model.machine.recv_overhead_s * 1e3, model.net.segments,
      model.net.bandwidth_bps / 1e6);
}

/// One simulated awari build up to `level` on `ranks` processors.
inline para::SimBuildResult simulate_build(int level, int ranks,
                                           std::size_t combine_bytes,
                                           const sim::ClusterModel& model,
                                           para::PartitionScheme scheme =
                                               para::PartitionScheme::kCyclic,
                                           bool replicate_lower = false,
                                           int threads_per_rank = 1,
                                           int threads_scan = 0,
                                           int threads_drain = 0) {
  para::ParallelConfig config;
  config.ranks = ranks;
  config.combine_bytes = combine_bytes;
  config.scheme = scheme;
  config.replicate_lower = replicate_lower;
  config.threads_per_rank = threads_per_rank;
  config.threads_scan = threads_scan;
  config.threads_drain = threads_drain;
  config.oversubscribe =
      threads_per_rank > 1 || threads_scan > 1 || threads_drain > 1;
  return para::build_parallel_simulated(game::AwariFamily{}, level, config,
                                        model);
}

/// The measured awari workload profile of the top level of a build.
inline sim::LevelProfile measured_profile(const para::SimBuildResult& run) {
  return para::profile_of(run.levels.back());
}

/// Paper-scale what-if: the measured level profile rescaled to a target
/// awari level's position count, with rounds tracking the value bound.
inline sim::LevelProfile paper_scale_profile(const sim::LevelProfile& base,
                                             int measured_level,
                                             int target_level) {
  const double bound_ratio =
      static_cast<double>(target_level) / measured_level;
  return base.scaled(idx::level_size(target_level), bound_ratio);
}

// ---------------------------------------------------------------------------
// BENCH_*.json artifacts ("retra-bench-v1", documented in docs/METRICS.md).
//
// Every bench that builds levels emits its run through these helpers, so
// two binaries given the same configuration produce byte-comparable level
// arrays — CI's bench-smoke job relies on that to cross-check
// `retra_bench --suite smoke` against `bench_t3_comm`.

inline constexpr const char* kBenchSchema = "retra-bench-v1";

/// Identity of one bench run inside its artifact.
struct BenchRunMeta {
  std::string suite;  // suite or table id, e.g. "smoke", "t3"
  std::string bench;  // producing binary, e.g. "bench_t3_comm"
  int max_level = 0;
  int ranks = 0;
  std::size_t combine_bytes = 0;
};

/// Registers the output flags shared by all bench binaries.
inline void add_output_flags(support::Cli& cli) {
  cli.flag("json", "",
           "write a retra-bench-v1 JSON artifact to this path "
           "(see docs/METRICS.md)");
}

namespace detail {

/// The per-level statistics fields, shared between each levels[] entry and
/// the totals object (totals additionally lack "level").
inline void write_stats_fields(obs::JsonWriter& w,
                               const para::EngineStats& stats,
                               std::uint64_t positions, std::uint64_t rounds,
                               double time_s) {
  w.kv("positions", positions);
  w.kv("rounds", rounds);
  w.kv("updates_local", stats.updates_local);
  w.kv("updates_remote", stats.updates_remote);
  w.kv("lookups_local", stats.lookups_local);
  w.kv("lookups_remote", stats.lookups_remote);
  w.kv("replies", stats.replies_sent);
  w.kv("assignments", stats.assignments);
  w.kv("zero_filled", stats.zero_filled);
  w.kv("messages", stats.messages_sent);
  w.kv("records_per_message", stats.records_per_message());
  w.kv("payload_bytes", stats.payload_bytes);
  w.kv("time_s", time_s);
}

}  // namespace detail

/// Renders a finished simulated build as the retra-bench-v1 document.
/// `delta` is the obs snapshot delta covering exactly this run.
inline std::string bench_artifact_json(const BenchRunMeta& meta,
                                       const sim::ClusterModel& model,
                                       const para::SimBuildResult& run,
                                       const obs::Snapshot& delta) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kBenchSchema);
  w.kv("suite", meta.suite);
  w.kv("bench", meta.bench);
  w.key("config").begin_object();
  w.kv("max_level", meta.max_level);
  w.kv("ranks", meta.ranks);
  w.kv("combine_bytes", static_cast<std::uint64_t>(meta.combine_bytes));
  w.kv("cpu_mops", model.machine.cpu_ops_per_second / 1e6);
  w.kv("send_overhead_us", model.machine.send_overhead_s * 1e6);
  w.kv("recv_overhead_us", model.machine.recv_overhead_s * 1e6);
  w.kv("bandwidth_mbps", model.net.bandwidth_bps / 1e6);
  w.kv("segments", model.net.segments);
  w.end_object();

  para::EngineStats total;
  std::uint64_t positions = 0;
  std::uint64_t rounds = 0;
  double total_time = 0.0;
  w.key("levels").begin_array();
  for (const para::LevelRunInfo& info : run.levels) {
    // time_s is the level's virtual cluster time, not host wall time.
    const double time_s = run.timings[support::to_size(info.level)].time_s;
    w.begin_object();
    w.kv("level", info.level);
    detail::write_stats_fields(w, info.total, info.size, info.rounds, time_s);
    w.end_object();
    total += info.total;
    positions += info.size;
    rounds += info.rounds;
    total_time += time_s;
  }
  w.end_array();
  w.key("totals").begin_object();
  detail::write_stats_fields(w, total, positions, rounds, total_time);
  w.end_object();
  w.key("metrics");
  obs::write_metrics_array(w, delta);
  w.end_object();
  return w.str();
}

/// Artifact for benches that run no simulated build — the micro and
/// query-serving benches.  The document is schema-identical to a build
/// artifact (so one validator covers everything) with an empty `levels`
/// array, zeroed `totals`, and the interesting content in `metrics`: the
/// obs snapshot delta covering exactly the benched workload.
inline std::string micro_artifact_json(const BenchRunMeta& meta,
                                       const obs::Snapshot& delta,
                                       const sim::ClusterModel& model = {}) {
  return bench_artifact_json(meta, model, para::SimBuildResult{}, delta);
}

/// Structural check of a parsed retra-bench-v1 document: schema tag,
/// config/levels/totals fields, and a metrics array that mirrors the obs
/// catalog (every catalog metric present, kinds matching).  Returns false
/// with a description in `error` on the first violation.
inline bool validate_bench_artifact(const obs::JsonValue& doc,
                                    std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  if (!doc.is_object()) return fail("root is not an object");
  const obs::JsonValue* schema = doc.find("schema");
  if (!schema || !schema->is_string() || schema->string != kBenchSchema) {
    return fail("schema is missing or not \"" + std::string(kBenchSchema) +
                "\"");
  }
  for (const char* key : {"suite", "bench"}) {
    const obs::JsonValue* v = doc.find(key);
    if (!v || !v->is_string() || v->string.empty()) {
      return fail(std::string(key) + " is missing or empty");
    }
  }

  const obs::JsonValue* config = doc.find("config");
  if (!config || !config->is_object()) return fail("config is not an object");
  for (const char* key :
       {"max_level", "ranks", "combine_bytes", "cpu_mops",
        "send_overhead_us", "recv_overhead_us", "bandwidth_mbps",
        "segments"}) {
    const obs::JsonValue* v = config->find(key);
    if (!v || !v->is_number()) {
      return fail("config." + std::string(key) +
                  " is missing or not a number");
    }
  }

  static constexpr const char* kStatsFields[] = {
      "positions",      "rounds",        "updates_local",
      "updates_remote", "lookups_local", "lookups_remote",
      "replies",        "assignments",   "zero_filled",
      "messages",       "records_per_message", "payload_bytes",
      "time_s"};
  const obs::JsonValue* levels = doc.find("levels");
  if (!levels || !levels->is_array()) return fail("levels is not an array");
  for (std::size_t i = 0; i < levels->array.size(); ++i) {
    const obs::JsonValue& entry = levels->array[i];
    const std::string where = "levels[" + std::to_string(i) + "]";
    if (!entry.is_object()) return fail(where + " is not an object");
    const obs::JsonValue* level = entry.find("level");
    if (!level || !level->is_number()) {
      return fail(where + ".level is missing or not a number");
    }
    for (const char* key : kStatsFields) {
      const obs::JsonValue* v = entry.find(key);
      if (!v || !v->is_number()) {
        return fail(where + "." + key + " is missing or not a number");
      }
    }
  }
  const obs::JsonValue* totals = doc.find("totals");
  if (!totals || !totals->is_object()) return fail("totals is not an object");
  for (const char* key : kStatsFields) {
    const obs::JsonValue* v = totals->find(key);
    if (!v || !v->is_number()) {
      return fail("totals." + std::string(key) +
                  " is missing or not a number");
    }
  }

  const obs::JsonValue* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_array()) return fail("metrics is not an array");
  std::vector<bool> seen(obs::kMetricCount, false);
  for (const obs::JsonValue& entry : metrics->array) {
    if (!entry.is_object()) return fail("metrics entry is not an object");
    const obs::JsonValue* name = entry.find("name");
    const obs::JsonValue* kind = entry.find("kind");
    if (!name || !name->is_string() || !kind || !kind->is_string()) {
      return fail("metrics entry lacks name/kind strings");
    }
    std::size_t index = obs::kMetricCount;
    for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
      if (obs::kCatalog[i].name == name->string) {
        index = i;
        break;
      }
    }
    if (index == obs::kMetricCount) {
      return fail("metric \"" + name->string + "\" is not in the obs catalog");
    }
    if (seen[index]) return fail("metric \"" + name->string + "\" repeated");
    seen[index] = true;
    const obs::Kind expected = obs::kCatalog[index].kind;
    if (kind->string != obs::kind_name(expected)) {
      return fail("metric \"" + name->string + "\" has kind \"" +
                  kind->string + "\", catalog says \"" +
                  std::string(obs::kind_name(expected)) + "\"");
    }
    switch (expected) {
      case obs::Kind::kCounter:
      case obs::Kind::kGauge: {
        const obs::JsonValue* v = entry.find("value");
        if (!v || !v->is_number()) {
          return fail("metric \"" + name->string + "\" lacks a value");
        }
        break;
      }
      case obs::Kind::kTimer: {
        const obs::JsonValue* seconds = entry.find("seconds");
        const obs::JsonValue* count = entry.find("count");
        if (!seconds || !seconds->is_number() || !count ||
            !count->is_number()) {
          return fail("metric \"" + name->string + "\" lacks seconds/count");
        }
        break;
      }
      case obs::Kind::kHistogram: {
        const obs::JsonValue* count = entry.find("count");
        const obs::JsonValue* sum = entry.find("sum");
        const obs::JsonValue* buckets = entry.find("buckets");
        if (!count || !count->is_number() || !sum || !sum->is_number() ||
            !buckets || !buckets->is_array()) {
          return fail("metric \"" + name->string +
                      "\" lacks count/sum/buckets");
        }
        break;
      }
    }
  }
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    if (!seen[i]) {
      return fail("catalog metric \"" + std::string(obs::kCatalog[i].name) +
                  "\" is absent from the metrics array");
    }
  }
  return true;
}

/// Parse-then-validate convenience for files and tests.
inline bool validate_bench_artifact(std::string_view text,
                                    std::string* error) {
  obs::JsonValue doc;
  if (!obs::json_parse(text, doc, error)) return false;
  return validate_bench_artifact(doc, error);
}

/// Writes `json` to `path`; returns false (with a perror-style message on
/// stderr) when the file cannot be written.
inline bool write_text_file(const std::string& path,
                            const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

/// Honors a bench binary's --json flag: renders the artifact, validates it
/// against the schema it was just written from (a self-check that the
/// writer and validator stay in lockstep), and writes it out.  Returns
/// false on I/O or validation failure.
inline bool write_artifact_if_requested(const support::Cli& cli,
                                        const BenchRunMeta& meta,
                                        const sim::ClusterModel& model,
                                        const para::SimBuildResult& run,
                                        const obs::Snapshot& delta) {
  const std::string path = cli.str("json");
  if (path.empty()) return true;
  const std::string json = bench_artifact_json(meta, model, run, delta);
  std::string error;
  if (!validate_bench_artifact(json, &error)) {
    std::fprintf(stderr, "internal error: artifact fails validation: %s\n",
                 error.c_str());
    return false;
  }
  if (!write_text_file(path, json)) return false;
  std::printf("\nwrote %s (%s)\n", path.c_str(), kBenchSchema);
  return true;
}

/// write_artifact_if_requested for micro/query benches: same validate-
/// then-write discipline, empty levels (see micro_artifact_json).
inline bool write_micro_artifact(const std::string& path,
                                 const BenchRunMeta& meta,
                                 const obs::Snapshot& delta,
                                 const sim::ClusterModel& model = {}) {
  if (path.empty()) return true;
  const std::string json = micro_artifact_json(meta, delta, model);
  std::string error;
  if (!validate_bench_artifact(json, &error)) {
    std::fprintf(stderr, "internal error: artifact fails validation: %s\n",
                 error.c_str());
    return false;
  }
  if (!write_text_file(path, json)) return false;
  std::printf("\nwrote %s (%s)\n", path.c_str(), kBenchSchema);
  return true;
}

}  // namespace retra::bench
