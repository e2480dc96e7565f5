// Database builder CLI: sequential or distributed (thread-backed)
// construction for awari or kalah, with verification, checkpointing,
// statistics and persistence.
//
//   $ db_builder --level=10 --ranks=8 --out=/tmp/awari10.db
//   $ db_builder --game=kalah --level=9 --sequential
//   $ db_builder --level=12 --checkpoint=/tmp/ck   # crash-safe, resumable
#include <cstdio>

#include "retra/db/db_io.hpp"
#include "retra/db/db_stats.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/game/kalah_level.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/ra/builder.hpp"
#include "retra/support/cli.hpp"
#include "retra/support/format.hpp"
#include "retra/support/table.hpp"
#include "retra/support/timer.hpp"

namespace {

using namespace retra;

template <typename Family>
int run(const Family& family, const support::Cli& cli) {
  const int level = static_cast<int>(cli.integer("level"));
  support::Timer timer;
  db::Database database;

  if (cli.boolean("sequential")) {
    ra::BuildOptions options;
    options.verify = cli.boolean("verify");
    options.on_level = [](int l, const ra::SweepStats& stats) {
      std::fprintf(stderr, "  level %2d: %llu positions, %llu updates\n", l,
                   static_cast<unsigned long long>(stats.positions),
                   static_cast<unsigned long long>(stats.updates));
    };
    database = ra::build_database(family, level, options);
    std::printf("sequential build to level %d: %.2fs\n", level,
                timer.seconds());
  } else {
    para::ParallelConfig config;
    config.ranks = static_cast<int>(cli.integer("ranks"));
    config.combine_bytes =
        static_cast<std::size_t>(cli.integer("combine-bytes"));
    config.use_threads = true;
    config.threads_per_rank =
        static_cast<int>(cli.integer("threads-per-rank"));
    config.threads_scan = static_cast<int>(cli.integer("threads-scan"));
    config.threads_drain = static_cast<int>(cli.integer("threads-drain"));
    config.async = cli.boolean("async");
    config.checkpoint_dir = cli.str("checkpoint");
    config.store.working_set_bytes =
        static_cast<std::uint64_t>(cli.integer("working-set-kb")) * 1024;
    config.store.scratch_dir = cli.str("scratch-dir");
    if (config.store.out_of_core() && config.store.scratch_dir.empty()) {
      std::fprintf(stderr, "--working-set-kb needs --scratch-dir\n");
      return 2;
    }
    const std::string scheme = cli.str("scheme");
    config.scheme = scheme == "block" ? para::PartitionScheme::kBlock
                    : scheme == "block-cyclic"
                        ? para::PartitionScheme::kBlockCyclic
                        : para::PartitionScheme::kCyclic;
    const para::ParallelResult result =
        para::build_parallel(family, level, config);
    std::printf(
        "distributed build to level %d on %d ranks (%s partition, %s "
        "driver): %.2fs, %llu combined messages, %s payload, %llu %s\n",
        level, config.ranks, scheme.c_str(),
        config.async ? "async" : "BSP", timer.seconds(),
        static_cast<unsigned long long>(result.total_messages()),
        support::human_bytes(result.total_payload_bytes()).c_str(),
        static_cast<unsigned long long>(result.total_rounds()),
        config.async ? "supersteps" : "rounds");
    if (config.store.out_of_core()) {
      para::StoreStats store;
      for (int r = 0; r < config.ranks; ++r) {
        store += result.database->store(r).stats();
      }
      std::printf(
          "out-of-core: %llu level spills (%s), %llu faults (%s), "
          "%llu evictions, peak resident %s/rank under a %s budget\n",
          static_cast<unsigned long long>(store.levels_spilled),
          support::human_bytes(store.spill_bytes).c_str(),
          static_cast<unsigned long long>(store.faults),
          support::human_bytes(store.fault_bytes).c_str(),
          static_cast<unsigned long long>(store.evictions),
          support::human_bytes(store.peak_resident_bytes).c_str(),
          support::human_bytes(config.store.working_set_bytes).c_str());
    }
    database = result.database->gather();
    if (cli.boolean("verify")) {
      for (int l = 0; l <= level; ++l) {
        decltype(auto) game = family.level(l);
        auto lower = [&database](int lv, idx::Index i) {
          return database.value(lv, i);
        };
        const auto report = ra::verify_level(game, lower, database.level(l));
        if (!report.ok) {
          std::fprintf(stderr, "verification FAILED: %s\n",
                       report.error.c_str());
          return 1;
        }
      }
      std::printf("all levels verified\n");
    }
  }

  support::Table table(
      {"level", "positions", "wins", "draws", "losses", "max"});
  for (int l = 0; l <= level; ++l) {
    const db::LevelStats stats = db::level_stats(database, l);
    table.row()
        .add(l)
        .add(stats.positions)
        .add(stats.wins)
        .add(stats.draws)
        .add(stats.losses)
        .add(static_cast<int>(stats.max_value));
  }
  table.print();

  if (const std::string out = cli.str("out"); !out.empty()) {
    db::save(database, out,
             db::Format{.block_positions = static_cast<std::uint32_t>(
                            cli.integer("block-positions"))});
    std::printf("wrote %s (RTRADB03)\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.flag("game", "awari", "awari or kalah");
  cli.flag("level", "9", "largest stone count to solve");
  cli.flag("ranks", "4", "ranks for the distributed build");
  cli.flag("threads-per-rank", "1",
           "worker threads inside each rank (two-level parallelism)");
  cli.flag("threads-scan", "0",
           "scan/seed/zero-fill worker threads per rank "
           "(0 = --threads-per-rank)");
  cli.flag("threads-drain", "0",
           "drain-wave worker threads per rank (0 = --threads-per-rank)");
  cli.flag("sequential", "false", "use the sequential solver instead");
  cli.flag("verify", "true", "run the self-verifier on every level");
  cli.flag("async", "false", "barrier-free distributed driver");
  cli.flag("combine-bytes", "4096", "combining buffer size");
  cli.flag("scheme", "cyclic", "partition scheme: block|cyclic|block-cyclic");
  cli.flag("checkpoint", "", "checkpoint directory (resume if present)");
  cli.flag("working-set-kb", "0",
           "per-rank byte budget for completed levels; >0 pages cold "
           "levels out to --scratch-dir (0 = all in memory)");
  cli.flag("scratch-dir", "",
           "directory for spilled levels and drain-queue run files");
  cli.flag("out", "", "write the database to this file (RTRADB03)");
  cli.flag("block-positions", "4096",
           "positions per RTRADB03 block (even, at most 65536)");
  cli.parse(argc, argv);

  const std::string game = cli.str("game");
  if (game == "kalah") return run(game::KalahFamily{}, cli);
  if (game == "awari") return run(game::AwariFamily{}, cli);
  std::fprintf(stderr, "unknown game: %s\n", game.c_str());
  return 2;
}
