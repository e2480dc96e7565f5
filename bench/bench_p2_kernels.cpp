// P2 — Vectorized sweep kernels: scalar vs SIMD throughput.
//
// Three panels:
//  (a) kernels: the three exec::simd sweep kernels timed on a packed
//      int16 array at every backend this host supports (scalar, SSE2,
//      AVX2).  The packed seed scan (collect_eq2) speedup over scalar is
//      the headline number; every backend's output is checked identical
//      to the scalar reference before it is timed.
//  (b) engine: real awari builds with the backend pinned scalar vs
//      widest, across per-phase thread splits — the engine phase timers
//      (host wall time) show what the kernels buy inside the full
//      seed/zero-fill/drain machinery, with the drain split into its
//      chunk-parallel predecessor generation and its sliced apply (plus
//      the chunk-order merge), and the runs are checked for the engines'
//      bit-identity guarantee (same stats either way).
//  (c) model: the 1995 cluster priced at vector_lanes = 1 (the paper's
//      scalar SPARCs) vs this host's width — the DES sweep term shrinks
//      by exactly the lane count; everything else is untouched.
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "retra/exec/simd.hpp"

namespace {

using namespace retra;
using namespace retra::bench;

struct KernelRow {
  exec::simd::Backend backend = exec::simd::Backend::kScalar;
  int lanes = 1;
  double replace_s = 0;  // zero-fill word sweep
  double eq2_s = 0;      // packed seed scan
  double seed_s = 0;     // first-magnitude combined sweep
};

struct EngineRow {
  const char* backend = "";
  int threads_scan = 0;
  int threads_drain = 0;
  double seed_s = 0;
  double zero_fill_s = 0;
  double drain_s = 0;
  double generate_s = 0;  // drain: predecessor generation
  double apply_s = 0;     // drain: sliced apply + chunk-order merge
  std::uint64_t sweep_positions = 0;
  std::uint64_t assignments = 0;
  std::uint64_t zero_filled = 0;
};

/// Best-of-`reps` wall time of `body` (untimed `prepare` runs first).
template <typename Prepare, typename Body>
double best_of(int reps, Prepare&& prepare, Body&& body) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const support::Timer timer;
    body();
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace retra;
  using namespace retra::bench;
  support::Cli cli;
  cli.describe(
      "P2: scalar vs SIMD throughput of the exec::simd sweep kernels, "
      "standalone and inside the engines, plus the 1995 model priced "
      "with and without the vector-width term. --json writes the "
      "artifact.");
  add_model_flags(cli);
  add_output_flags(cli);
  cli.flag("elements", "4194304",
           "int16 elements in the standalone kernel arrays");
  cli.flag("reps", "5", "timed repetitions per kernel (best-of)");
  cli.flag("level", "7", "awari level of the engine and model panels");
  cli.flag("combine-bytes", "4096", "combining buffer size");
  cli.parse(argc, argv);
  const auto n = static_cast<std::size_t>(cli.integer("elements"));
  const int reps = static_cast<int>(cli.integer("reps"));
  const int level = static_cast<int>(cli.integer("level"));
  const auto combine = static_cast<std::size_t>(cli.integer("combine-bytes"));
  sim::ClusterModel model = model_from(cli);

  const exec::simd::Backend widest = exec::simd::widest_available();
  const exec::simd::Backend initial = exec::simd::active();
  std::printf(
      "P2: vectorized sweep kernels — %zu int16 elements, best of %d, "
      "widest backend %s (%d lanes), %u hardware thread(s)\n",
      n, reps, exec::simd::backend_name(widest),
      exec::simd::lanes(widest), std::thread::hardware_concurrency());
  print_model(model);

  // (a) Standalone kernels.  The input mirrors an engine shard mid-build:
  // roughly a third of the values still unknown, option counts and best
  // exits scattered so every vector word mixes matches and non-matches.
  std::vector<std::int16_t> values(n), best(n);
  std::vector<std::uint16_t> cnt(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = i % 3 == 0 ? db::kUnknown : static_cast<std::int16_t>(i % 7);
    best[i] = static_cast<std::int16_t>(i % 5);
    cnt[i] = static_cast<std::uint16_t>(i % 4);
  }
  const std::int16_t mag = 2;
  std::vector<std::int16_t> scratch(n);
  std::vector<std::uint32_t> hits(n);

  // Cross-backend identity check before anything is timed.
  exec::simd::set_active(exec::simd::Backend::kScalar);
  scratch = values;
  const std::uint64_t ref_replaced =
      exec::simd::replace_matching(scratch.data(), n, db::kUnknown, 0);
  const std::vector<std::int16_t> ref_replaced_data = scratch;
  const std::size_t ref_eq2 = exec::simd::collect_eq2(
      values.data(), db::kUnknown, best.data(), mag, n, hits.data());
  const std::vector<std::uint32_t> ref_eq2_hits(
      hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(ref_eq2));
  const std::size_t ref_seed = exec::simd::collect_seed_candidates(
      values.data(), db::kUnknown, cnt.data(), best.data(), mag, n,
      hits.data());
  const std::vector<std::uint32_t> ref_seed_hits(
      hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(ref_seed));

  std::vector<KernelRow> kernel_rows;
  for (const auto backend :
       {exec::simd::Backend::kScalar, exec::simd::Backend::kSse2,
        exec::simd::Backend::kAvx2}) {
    if (exec::simd::set_active(backend) != backend) continue;
    KernelRow row;
    row.backend = backend;
    row.lanes = exec::simd::lanes(backend);

    scratch = values;
    RETRA_CHECK(exec::simd::replace_matching(scratch.data(), n, db::kUnknown,
                                             0) == ref_replaced);
    RETRA_CHECK(scratch == ref_replaced_data);
    std::size_t matched = exec::simd::collect_eq2(
        values.data(), db::kUnknown, best.data(), mag, n, hits.data());
    RETRA_CHECK(matched == ref_eq2);
    RETRA_CHECK(std::memcmp(hits.data(), ref_eq2_hits.data(),
                            matched * sizeof(std::uint32_t)) == 0);
    matched = exec::simd::collect_seed_candidates(values.data(), db::kUnknown,
                                                  cnt.data(), best.data(),
                                                  mag, n, hits.data());
    RETRA_CHECK(matched == ref_seed);
    RETRA_CHECK(std::memcmp(hits.data(), ref_seed_hits.data(),
                            matched * sizeof(std::uint32_t)) == 0);

    row.replace_s = best_of(
        reps, [&] { std::memcpy(scratch.data(), values.data(),
                                n * sizeof(std::int16_t)); },
        [&] { exec::simd::replace_matching(scratch.data(), n, db::kUnknown,
                                           0); });
    row.eq2_s = best_of(
        reps, [] {},
        [&] { exec::simd::collect_eq2(values.data(), db::kUnknown,
                                      best.data(), mag, n, hits.data()); });
    row.seed_s = best_of(
        reps, [] {},
        [&] { exec::simd::collect_seed_candidates(values.data(), db::kUnknown,
                                                  cnt.data(), best.data(),
                                                  mag, n, hits.data()); });
    kernel_rows.push_back(row);
  }
  exec::simd::set_active(initial);

  const double mpos = static_cast<double>(n) / 1e6;
  std::printf("\n(a) standalone kernels, Mpos/s (speedup vs scalar)\n\n");
  support::Table kernel_table({"backend", "lanes", "zero-fill", "seed scan",
                               "first-mag", "scan speedup"});
  for (const KernelRow& row : kernel_rows) {
    kernel_table.row()
        .add(exec::simd::backend_name(row.backend))
        .add(row.lanes)
        .add(mpos / row.replace_s, 0)
        .add(mpos / row.eq2_s, 0)
        .add(mpos / row.seed_s, 0)
        .add(kernel_rows.front().eq2_s / row.eq2_s, 2);
  }
  kernel_table.print();

  // (b) The kernels inside the engines: scalar vs widest backend across
  // per-phase thread splits, phase timers from the obs deltas.  The
  // engines guarantee bit-identical results for every cell; the stats
  // columns make that visible.
  std::printf(
      "\n(b) awari level %d build, host phase seconds by backend and "
      "(Tscan, Tdrain)\n\n",
      level);
  const struct {
    int scan;
    int drain;
  } splits[] = {{1, 1}, {2, 1}, {1, 2}, {2, 2}};
  std::vector<EngineRow> engine_rows;
  for (const auto backend : {exec::simd::Backend::kScalar, widest}) {
    if (backend != exec::simd::Backend::kScalar &&
        widest == exec::simd::Backend::kScalar) {
      break;  // scalar-only build: one pass
    }
    exec::simd::set_active(backend);
    for (const auto split : splits) {
      para::ParallelConfig config;
      config.ranks = 1;
      config.combine_bytes = combine;
      config.threads_scan = split.scan;
      config.threads_drain = split.drain;
      config.oversubscribe = true;
      const obs::Snapshot before = obs::snapshot();
      const para::ParallelResult run =
          para::build_parallel(game::AwariFamily{}, level, config);
      const obs::Snapshot delta = obs::snapshot() - before;
      EngineRow row;
      row.backend = exec::simd::backend_name(backend);
      row.threads_scan = split.scan;
      row.threads_drain = split.drain;
      row.seed_s = delta[obs::Id::kEngineSeedSeconds].seconds();
      row.zero_fill_s = delta[obs::Id::kEngineZeroFillSeconds].seconds();
      row.drain_s = delta[obs::Id::kEngineDrainSeconds].seconds();
      row.generate_s =
          delta[obs::Id::kEngineDrainGenerateSeconds].seconds();
      row.apply_s = delta[obs::Id::kEngineDrainApplySeconds].seconds();
      row.sweep_positions =
          delta[obs::Id::kEngineKernelSweepPositions].value;
      for (const para::LevelRunInfo& info : run.levels) {
        row.assignments += info.total.assignments;
        row.zero_filled += info.total.zero_filled;
      }
      engine_rows.push_back(row);
    }
  }
  exec::simd::set_active(initial);
  support::Table engine_table({"backend", "Tscan", "Tdrain", "seed",
                               "zero-fill", "drain", "generate", "apply",
                               "sweep pos",
                               "assignments", "zero-filled"});
  for (const EngineRow& row : engine_rows) {
    // Bit-identity guarantee: every cell finalises the same positions.
    RETRA_CHECK(row.assignments == engine_rows.front().assignments);
    RETRA_CHECK(row.zero_filled == engine_rows.front().zero_filled);
    engine_table.row()
        .add(row.backend)
        .add(row.threads_scan)
        .add(row.threads_drain)
        .add(support::human_seconds(row.seed_s))
        .add(support::human_seconds(row.zero_fill_s))
        .add(support::human_seconds(row.drain_s))
        .add(support::human_seconds(row.generate_s))
        .add(support::human_seconds(row.apply_s))
        .add(row.sweep_positions)
        .add(row.assignments)
        .add(row.zero_filled);
  }
  engine_table.print();

  // (c) The DES model with and without the vector-width term.  The work
  // meters are identical (determinism guarantee); only the kSweepPosition
  // pricing changes, so the delta is exactly the sweep term shrinking by
  // the lane count.
  const int host_lanes = exec::simd::lanes(widest);
  double model_time[2] = {0, 0};
  double sweep_term[2] = {0, 0};
  para::SimBuildResult model_runs[2];
  const obs::Snapshot artifact_before = obs::snapshot();
  for (int i = 0; i < 2; ++i) {
    model.machine.vector_lanes = i == 0 ? 1 : host_lanes;
    model_runs[i] = simulate_build(level, 1, combine, model);
    model_time[i] = model_runs[i].total_time_s();
    double sweep_ops = 0;
    for (const para::LevelRunInfo& info : model_runs[i].levels) {
      sweep_ops +=
          model.machine
              .op_cost[static_cast<std::size_t>(
                  msg::WorkKind::kSweepPosition)] *
          static_cast<double>(
              info.work_total.count(msg::WorkKind::kSweepPosition));
    }
    sweep_term[i] = sweep_ops / model.machine.cpu_ops_per_second /
                    model.machine.vector_lanes;
  }
  const obs::Snapshot artifact_delta = obs::snapshot() - artifact_before;
  model.machine.vector_lanes = 1;

  std::printf(
      "\n(c) modelled 1995 node, level %d: scalar SPARC vs a %d-lane "
      "what-if\n\n",
      level, host_lanes);
  support::Table model_table({"lanes", "sweep term", "build"});
  for (int i = 0; i < 2; ++i) {
    model_table.row()
        .add(i == 0 ? 1 : host_lanes)
        .add(support::human_seconds(sweep_term[i]))
        .add(support::human_seconds(model_time[i]));
  }
  model_table.print();

  const std::string path = cli.str("json");
  if (!path.empty()) {
    BenchRunMeta meta;
    meta.suite = "p2";
    meta.bench = "bench_p2_kernels";
    meta.max_level = level;
    meta.ranks = 1;
    meta.combine_bytes = combine;
    // Standard retra-bench-v1 document (levels of the lanes=1 model run,
    // metrics of the model panel) plus the "p2" extension object with the
    // kernel and engine grids; validators tolerate the extra key.
    std::string json =
        bench_artifact_json(meta, model, model_runs[0], artifact_delta);
    obs::JsonWriter extra;
    extra.begin_object();
    extra.kv("elements", static_cast<std::uint64_t>(n));
    extra.kv("widest_backend", exec::simd::backend_name(widest));
    extra.kv("widest_lanes", host_lanes);
    extra.key("kernels").begin_array();
    for (const KernelRow& row : kernel_rows) {
      extra.begin_object();
      extra.kv("backend", exec::simd::backend_name(row.backend));
      extra.kv("lanes", row.lanes);
      extra.kv("zero_fill_mpps", mpos / row.replace_s);
      extra.kv("seed_scan_mpps", mpos / row.eq2_s);
      extra.kv("first_mag_mpps", mpos / row.seed_s);
      extra.kv("seed_scan_speedup",
               kernel_rows.front().eq2_s / row.eq2_s);
      extra.end_object();
    }
    extra.end_array();
    extra.key("engine").begin_array();
    for (const EngineRow& row : engine_rows) {
      extra.begin_object();
      extra.kv("backend", row.backend);
      extra.kv("threads_scan", row.threads_scan);
      extra.kv("threads_drain", row.threads_drain);
      extra.kv("seed_s", row.seed_s);
      extra.kv("zero_fill_s", row.zero_fill_s);
      extra.kv("drain_s", row.drain_s);
      extra.kv("drain_generate_s", row.generate_s);
      extra.kv("drain_apply_s", row.apply_s);
      extra.kv("sweep_positions", row.sweep_positions);
      extra.kv("assignments", row.assignments);
      extra.kv("zero_filled", row.zero_filled);
      extra.end_object();
    }
    extra.end_array();
    extra.key("model").begin_object();
    extra.kv("level", level);
    extra.kv("scalar_sweep_s", sweep_term[0]);
    extra.kv("vector_sweep_s", sweep_term[1]);
    extra.kv("scalar_build_s", model_time[0]);
    extra.kv("vector_build_s", model_time[1]);
    extra.end_object();
    extra.end_object();
    RETRA_CHECK(json.size() > 1 && json.back() == '}');
    json.pop_back();
    json += ",\"p2\":" + extra.str() + "}";
    std::string error;
    if (!validate_bench_artifact(json, &error)) {
      std::fprintf(stderr, "internal error: artifact fails validation: %s\n",
                   error.c_str());
      return 1;
    }
    if (!write_text_file(path, json)) return 1;
    std::printf("\nwrote %s (%s)\n", path.c_str(), kBenchSchema);
  }
  return 0;
}
