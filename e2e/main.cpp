// retra_e2e — the repository's end-to-end benchmark, one workload per
// process:
//
//   retra_e2e --workload=build-p4 --seed=1 --seconds=15
//   retra_e2e --workload=serve-uniform --seed=1 --trace=trace.json
//
// Untraced, it prints the end-to-end metrics; with --trace it runs the
// traced variant and prints the per-layer metrics instead, writing the
// spans as Chrome trace-event JSON.  Every metric is printed as
// "workload metric value unit", and the last line of standard output is
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A wrong answer (a database digest or a served value that differs from
// the reference) exits 1 after printing it.  See e2e/README.md.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "reference.hpp"
#include "retra/obs/json.hpp"
#include "retra/support/cli.hpp"
#include "trace.hpp"

namespace {

using namespace retra;
using namespace retra::e2e;

constexpr const char* kWorkloads[] = {"build-p4", "build-p1t4", "build-ooc",
                                      "serve-uniform", "serve-oracle"};

struct MetricDesc {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them, untraced.
constexpr MetricDesc kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order.  A layer
/// a workload does not exercise reports 0.
constexpr MetricDesc kPerLayer[] = {
    {"driver.rounds", "count"},
    {"driver.barrier_wait_s", "s"},
    {"driver.imbalance", "ratio"},
    {"driver.scaling_efficiency", "ratio"},
    {"engine.init_s", "s"},
    {"engine.magnitude_s", "s"},
    {"engine.zero_fill_s", "s"},
    {"engine.scan_s", "s"},
    {"engine.seed_s", "s"},
    {"engine.drain_s", "s"},
    {"exec.sweep_positions", "count"},
    {"exec.sweep_matches", "count"},
    {"exec.chunks", "count"},
    {"msg.messages", "count"},
    {"msg.payload_bytes", "bytes"},
    {"msg.records_per_message", "records"},
    {"msg.send_s", "s"},
    {"msg.recv_s", "s"},
    {"msg.recv_empty_ratio", "ratio"},
    {"store.faults", "count"},
    {"store.fault_bytes", "bytes"},
    {"store.evictions", "count"},
    {"store.spill_bytes", "bytes"},
    {"store.queue_spilled_records", "count"},
    {"store.peak_resident_bytes", "bytes"},
    {"db.gather_s", "s"},
    {"db.save_s", "s"},
    {"db.file_bytes", "bytes"},
    {"serve.lookup_us_p50", "us"},
    {"serve.lookup_us_p99", "us"},
    {"serve.blockcache.hit_ratio", "ratio"},
    {"serve.blockcache.faults", "count"},
    {"serve.blockcache.decode_s", "s"},
    {"net.server_us_mean", "us"},
    {"net.hot_hit_ratio", "ratio"},
    {"net.shed", "count"},
    {"net.coalesced_lookups_mean", "lookups"},
    {"net.bytes_per_lookup", "bytes"},
    {"oracle.round_trips_per_request", "count"},
    {"oracle.lookups_per_request", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"host.reference_s", "s"},
};

/// The workload's metrics in catalog order; a catalog metric the
/// workload did not report is 0, and a reported metric outside the
/// catalog (or with another unit) is an error.
template <std::size_t N>
std::vector<Metric> in_catalog_order(const MetricDesc (&catalog)[N],
                                     bool fill_missing, Result& result) {
  std::vector<Metric> ordered;
  for (const MetricDesc& desc : catalog) {
    const auto found =
        std::find_if(result.metrics.begin(), result.metrics.end(),
                     [&](const Metric& m) { return m.name == desc.name; });
    if (found != result.metrics.end()) {
      ordered.push_back(*found);
    } else if (fill_missing) {
      ordered.push_back({desc.name, 0.0, desc.unit, "not exercised"});
    } else if (result.correct) {
      result.fail(std::string("metric ") + desc.name + " was not measured");
    }
  }
  for (const Metric& metric : result.metrics) {
    const auto known =
        std::find_if(std::begin(catalog), std::end(catalog),
                     [&](const MetricDesc& d) {
                       return metric.name == d.name;
                     });
    if (known == std::end(catalog) || metric.unit != known->unit) {
      result.fail("metric " + metric.name + " is not in the catalog");
    }
  }
  return ordered;
}

void print_line(const std::string& workload, const Metric& metric) {
  std::printf("%s %s %.9g %s%s%s\n", workload.c_str(), metric.name.c_str(),
              metric.value, metric.unit.c_str(), metric.note.empty() ? "" : " ",
              metric.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = now_ns();
  support::Cli cli;
  cli.describe(
      "End-to-end benchmark: builds (build-p4, build-p1t4, build-ooc) and "
      "network serving (serve-uniform, serve-oracle); see e2e/README.md.");
  cli.flag("workload", "", "workload to run");
  cli.flag("seed", "1", "seed of the serving streams and boards");
  cli.flag("seconds", "15", "length of the timed part of the run");
  cli.flag("trace", "",
           "write the traced run's spans to this Chrome trace file and "
           "report the per-layer metrics");
  cli.flag("tmp-dir", "build-e2e/tmp",
           "where the run's temporary directory is created");
  cli.flag("smoke", "false", "toy sizes (level 8) for the self-test");
  cli.parse(argc, argv);

  Options options;
  options.workload = cli.str("workload");
  options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  options.seconds = cli.number("seconds");
  options.trace_path = cli.str("trace");
  options.tmp_root = cli.str("tmp-dir");
  options.smoke = cli.boolean("smoke");
  options.process_start_ns = process_start;
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                options.workload) == std::end(kWorkloads) ||
      options.seconds <= 0.0) {
    std::fprintf(stderr, "unknown --workload=%s or bad --seconds\n%s",
                 options.workload.c_str(), cli.usage().c_str());
    return 2;
  }

  Result result;
  try {
    // Forked before the workload starts any thread.
    Reference reference;
    result = options.workload.rfind("build-", 0) == 0
                 ? run_build_workload(options, reference)
                 : run_serve_workload(options, reference);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  const std::vector<Metric> metrics =
      options.traced() ? in_catalog_order(kPerLayer, true, result)
                       : in_catalog_order(kEndToEnd, false, result);

  for (const Metric& metric : metrics) print_line(options.workload, metric);
  for (const Metric& metric : result.extra) {
    print_line(options.workload, metric);
  }
  print_line(options.workload,
             {"failed_ratio",
              result.attempted ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 0.0,
              "ratio", "failed / attempted"});
  for (const std::string& note : result.notes) {
    std::printf("# %s: %s\n", options.workload.c_str(), note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "%s: WRONG: %s\n", options.workload.c_str(),
                 error.c_str());
  }

  obs::JsonWriter json;
  json.begin_object()
      .kv("correct", result.correct)
      .kv("attempted", result.attempted)
      .kv("failed", result.failed)
      .key("metrics")
      .begin_object();
  for (const Metric& metric : metrics) {
    json.key(metric.name)
        .begin_object()
        .kv("value", metric.value)
        .kv("unit", std::string_view(metric.unit))
        .end_object();
  }
  json.end_object().end_object();
  std::fflush(stdout);
  std::printf("%s\n", json.str().c_str());
  return result.correct ? 0 : 1;
}
