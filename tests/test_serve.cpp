// The query-serving layer: ValueSource backends, the block reader, the
// one block cache (LRU eviction), and metrics reconciliation.
//
// The anchor is the backend-agreement sweep: every value of the full
// awari database up to 6 stones must be identical through the dense
// adapter, the bit-packed adapter, a file served from every on-disk
// format, and a budget-squeezed QueryService — the serving stack may
// change representation, never answers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numeric>

#include "bench_common.hpp"
#include "legacy_fixtures.hpp"
#include "retra/db/compact.hpp"
#include "retra/db/db_io.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/ra/builder.hpp"
#include "retra/serve/block_cache.hpp"
#include "retra/serve/query_service.hpp"

namespace retra::serve {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The solved awari database shared by the agreement tests; built once.
const db::Database& solved() {
  static const db::Database database =
      ra::build_database(game::AwariFamily{}, 6);
  return database;
}

/// Saves `solved()` as RTRADB03 with the given block geometry.  The
/// default, kMaxBlockPositions, exceeds every level's size, so each level
/// is one block and the cache holds whole levels.
std::string save_solved(
    const char* name, std::uint32_t block_positions = db::kMaxBlockPositions) {
  const std::string path = temp_path(name);
  db::save(solved(), path, db::Format{.block_positions = block_positions});
  return path;
}

void expect_full_agreement(ValueSource& source, const db::Database& oracle) {
  ASSERT_EQ(source.num_levels(), oracle.num_levels());
  for (int level = 0; level < oracle.num_levels(); ++level) {
    ASSERT_EQ(source.level_size(level), oracle.level(level).size());
    // level_values() exercises the batched path for the whole level.
    EXPECT_EQ(source.level_values(level), oracle.level(level))
        << "level " << level;
  }
}

TEST(ValueSource, DenseAdapterAgreesEverywhere) {
  DatabaseSource source(solved());
  expect_full_agreement(source, solved());
}

TEST(ValueSource, CompactAdapterAgreesEverywhere) {
  const db::CompactDatabase compact(solved());
  CompactSource source(compact);
  expect_full_agreement(source, solved());
}

// The file-backed ValueSource is an unbudgeted QueryService: every block
// FileSource reads stays cached, so these sweeps check the reader alone.
TEST(ValueSource, FileSourceAgreesOnBothFormats) {
  // The legacy RTRADB01/02 fixtures still serve: each level is one
  // implicit block, answered exactly as the solver built it.
  const db::Database built = ra::build_database(game::AwariFamily{}, 3);
  for (const auto& [fixture, version] :
       {std::pair{"awari3.rtradb01", 1}, std::pair{"awari3.rtradb02", 2}}) {
    auto opened = QueryService::open(test::fixture_path(fixture));
    ASSERT_TRUE(opened.ok) << opened.error;
    ASSERT_EQ(opened.service->index().version, version);
    expect_full_agreement(*opened.service, built);
    EXPECT_EQ(opened.service->stats().faults, 4u) << fixture;
    EXPECT_EQ(opened.service->stats().evictions, 0u);
  }
}

TEST(ValueSource, FileSourceAgreesOnCompressedFormat) {
  const std::string path =
      save_solved("retra_serve_agree_c.db", 1024);
  auto opened = QueryService::open(path);
  ASSERT_TRUE(opened.ok) << opened.error;
  ASSERT_EQ(opened.service->index().version, 3);
  expect_full_agreement(*opened.service, solved());
  EXPECT_EQ(opened.service->stats().evictions, 0u);
  std::remove(path.c_str());
}

TEST(ValueSource, QueryServiceCompressedUnderBudgetAgreesEverywhere) {
  // The fifth backend of the agreement sweep: a block-compressed file
  // behind a budget that holds only a handful of blocks, so the sweep
  // faults, decodes and evicts blocks constantly — agreement proves the
  // block cache never changes an answer.
  const std::string path =
      save_solved("retra_serve_budget_c.db", 1024);
  QueryServiceConfig config;
  config.budget_bytes = 2048;
  auto opened = QueryService::open(path, config);
  ASSERT_TRUE(opened.ok) << opened.error;
  ASSERT_EQ(opened.service->index().version, 3);
  expect_full_agreement(*opened.service, solved());
  const QueryService::Stats stats = opened.service->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
  std::remove(path.c_str());
}

TEST(ValueSource, QueryServiceUnderBudgetAgreesEverywhere) {
  const std::string path = save_solved("retra_serve_budget.db");
  // A budget that fits only a sliver of the file: every level sweep
  // evicts others, so agreement here proves fault/evict round-trips.
  QueryServiceConfig config;
  config.budget_bytes = 4096;
  auto opened = QueryService::open(path, config);
  ASSERT_TRUE(opened.ok) << opened.error;
  expect_full_agreement(*opened.service, solved());
  EXPECT_GT(opened.service->stats().evictions, 0u);
  std::remove(path.c_str());
}

TEST(ValueSource, BatchedMatchesSingleLookups) {
  const std::string path = save_solved("retra_serve_batch.db");
  auto batched = QueryService::open(path);
  auto single = QueryService::open(path);
  ASSERT_TRUE(batched.ok && single.ok);
  for (int level = 0; level < solved().num_levels(); ++level) {
    // A strided sample, batched in one call vs looked up one by one.
    std::vector<idx::Index> indices;
    for (idx::Index i = 0; i < solved().level(level).size(); i += 7) {
      indices.push_back(i);
    }
    std::vector<db::Value> out(indices.size());
    batched.service->values(level, indices, out);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(out[i], single.service->value(level, indices[i]));
    }
  }
  // Both services answered the same positions; the batched one did it in
  // one values() call per level.
  EXPECT_EQ(batched.service->stats().lookups,
            single.service->stats().lookups);
  EXPECT_EQ(batched.service->stats().batches,
            static_cast<std::uint64_t>(solved().num_levels()));
  std::remove(path.c_str());
}

TEST(ValueSource, CoversMatchesStoredLevels) {
  DatabaseSource source(solved());
  EXPECT_TRUE(source.covers(0));
  EXPECT_TRUE(source.covers(6));
  EXPECT_FALSE(source.covers(7));
  EXPECT_FALSE(source.covers(-1));
}

using Keys = std::vector<BlockCache::Key>;

/// Reads block `block` of `level` through `cache`, as a serving caller
/// does.
const BlockCache::Block& cached_block(BlockCache& cache, FileSource& source,
                                      int level, int block) {
  return cache.get({level, block}, source.block_decoded_bytes(level, block),
                   [&] { return source.read_block(level, block); });
}

TEST(FileSource, FaultsLazilyAndRefaultsAfterEviction) {
  const std::string path = save_solved("retra_serve_lazy.db");
  auto opened = FileSource::open(path);
  ASSERT_TRUE(opened.ok) << opened.error;
  FileSource& source = *opened.source;
  // Every level is one block here; budget exactly level 5.
  ASSERT_EQ(source.block_count(5), 1);
  BlockCache cache(source.block_decoded_bytes(5, 0));
  EXPECT_TRUE(cache.keys().empty());

  const BlockCache::Block& level5 = cached_block(cache, source, 5, 0);
  EXPECT_EQ(level5->size(), solved().level(5).size());
  EXPECT_EQ(level5->get(0), solved().value(5, 0));
  EXPECT_EQ(cache.keys(), (Keys{{5, 0}}));
  EXPECT_EQ(cache.stats().faults, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, source.block_decoded_bytes(5, 0));

  (void)cached_block(cache, source, 5, 0);  // cached: no second read
  EXPECT_EQ(cache.stats().faults, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  (void)cached_block(cache, source, 4, 0);  // no room: level 5 goes
  EXPECT_EQ(cache.keys(), (Keys{{4, 0}}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cached_block(cache, source, 5, 0);  // read back in
  EXPECT_EQ(cache.stats().faults, 3u);
  std::remove(path.c_str());
}

TEST(FileSource, FaultsSingleBlocksOnCompressedFiles) {
  const std::string path =
      save_solved("retra_serve_lazy_c.db", 512);
  auto opened = FileSource::open(path);
  ASSERT_TRUE(opened.ok) << opened.error;
  FileSource& source = *opened.source;
  ASSERT_EQ(source.index().version, 3);
  ASSERT_GE(source.block_count(6), 2);
  BlockCache cache(0);

  // A point lookup reads exactly one block, not the level.
  const BlockCache::Block& first =
      cached_block(cache, source, 6, source.block_of(6, 0));
  EXPECT_EQ(first->size(), 512u);
  EXPECT_EQ(first->get(1), solved().value(6, 1));
  EXPECT_EQ(cache.stats().faults, 1u);
  EXPECT_EQ(cache.keys(), (Keys{{6, 0}}));
  EXPECT_EQ(cache.stats().resident_bytes, source.block_decoded_bytes(6, 0));

  // Another position in the same block: no second read.
  (void)cached_block(cache, source, 6, source.block_of(6, 1));
  EXPECT_EQ(cache.stats().faults, 1u);

  // A position in the next block reads just that block, indexed from its
  // first position.
  const std::uint64_t begin = source.block_begin(6, 1);
  const BlockCache::Block& second =
      cached_block(cache, source, 6, source.block_of(6, begin));
  EXPECT_EQ(second->get(0), solved().value(6, begin));
  EXPECT_EQ(cache.stats().faults, 2u);
  EXPECT_EQ(cache.stats().resident_bytes,
            source.block_decoded_bytes(6, 0) +
                source.block_decoded_bytes(6, 1));
  std::remove(path.c_str());
}

TEST(FileSource, RejectsMissingAndMalformedFiles) {
  EXPECT_FALSE(FileSource::open(temp_path("retra_serve_missing.db")).ok);
  const std::string path = temp_path("retra_serve_badmagic.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTADB00garbage", f);
    std::fclose(f);
  }
  auto opened = FileSource::open(path);
  EXPECT_FALSE(opened.ok);
  EXPECT_NE(opened.error.find("magic"), std::string::npos) << opened.error;
  std::remove(path.c_str());
}

TEST(QueryService, EvictionOrderIsDeterministicLru) {
  const std::string path = save_solved("retra_serve_lru.db");
  // Budget sized for levels 4+5+6 (683+2184+6188 bytes) but not a fourth
  // level on top.
  auto opened = QueryService::open(path);
  ASSERT_TRUE(opened.ok) << opened.error;
  const db::FileIndex& index = opened.service->index();
  const std::uint64_t budget = index.levels[4].decoded_bytes() +
                               index.levels[5].decoded_bytes() +
                               index.levels[6].decoded_bytes();
  QueryServiceConfig config;
  config.budget_bytes = budget;
  auto squeezed = QueryService::open(path, config);
  ASSERT_TRUE(squeezed.ok) << squeezed.error;
  QueryService& service = *squeezed.service;

  (void)service.value(4, 0);
  (void)service.value(5, 0);
  (void)service.value(6, 0);
  EXPECT_EQ(service.resident_levels(), (std::vector<int>{6, 5, 4}));
  EXPECT_EQ(service.stats().evictions, 0u);

  // Touch 4 again, then fault level 3: the LRU victim must now be 5.
  (void)service.value(4, 1);
  (void)service.value(3, 0);
  EXPECT_EQ(service.resident_levels(), (std::vector<int>{3, 4, 6}));
  EXPECT_EQ(service.stats().evictions, 1u);

  // Re-running the same query sequence on a fresh service reproduces the
  // same residency, byte for byte: eviction depends only on the queries.
  auto replay = QueryService::open(path, config);
  ASSERT_TRUE(replay.ok);
  (void)replay.service->value(4, 0);
  (void)replay.service->value(5, 0);
  (void)replay.service->value(6, 0);
  (void)replay.service->value(4, 1);
  (void)replay.service->value(3, 0);
  EXPECT_EQ(replay.service->resident_levels(), service.resident_levels());
  EXPECT_EQ(replay.service->stats().resident_bytes,
            service.stats().resident_bytes);
  std::remove(path.c_str());
}

TEST(QueryService, BlockEvictionOrderIsDeterministicLru) {
  const std::string path =
      save_solved("retra_serve_blocklru.db", 512);
  auto probe = QueryService::open(path);
  ASSERT_TRUE(probe.ok) << probe.error;
  QueryService& probe_service = *probe.service;
  ASSERT_EQ(probe_service.index().version, 3);
  ASSERT_GE(probe_service.block_count(6), 4);
  // Every awari level through 6 stones packs at 4 bits, so a full block
  // decodes to 512 / 2 bytes; budget three of them, not a fourth.
  ASSERT_EQ(probe_service.index().levels[6].bits, 4);
  const std::uint64_t block_bytes = 512 / 2;
  QueryServiceConfig config;
  config.budget_bytes = 3 * block_bytes;
  auto squeezed = QueryService::open(path, config);
  ASSERT_TRUE(squeezed.ok) << squeezed.error;
  QueryService& service = *squeezed.service;

  const auto touch_block = [&](QueryService& s, int block) {
    (void)s.value(6, s.block_begin(6, block));
  };
  touch_block(service, 0);
  touch_block(service, 1);
  touch_block(service, 2);
  using Blocks = std::vector<std::pair<int, int>>;
  EXPECT_EQ(service.resident_blocks(), (Blocks{{6, 2}, {6, 1}, {6, 0}}));
  EXPECT_EQ(service.stats().evictions, 0u);

  // Touch block 0 again, then fault block 3: the LRU victim must be 1.
  touch_block(service, 0);
  touch_block(service, 3);
  EXPECT_EQ(service.resident_blocks(), (Blocks{{6, 3}, {6, 0}, {6, 2}}));
  EXPECT_EQ(service.stats().evictions, 1u);

  // Replaying the same query sequence on a fresh service reproduces the
  // same block residency: eviction depends only on the queries.
  auto replay = QueryService::open(path, config);
  ASSERT_TRUE(replay.ok);
  for (const int block : {0, 1, 2, 0, 3}) {
    touch_block(*replay.service, block);
  }
  EXPECT_EQ(replay.service->resident_blocks(), service.resident_blocks());
  EXPECT_EQ(replay.service->stats().resident_bytes,
            service.stats().resident_bytes);
  EXPECT_EQ(replay.service->stats().evictions,
            service.stats().evictions);
  std::remove(path.c_str());
}

TEST(QueryService, BlockStatsReconcileWithObsMetricsAndArtifact) {
  const std::string path =
      save_solved("retra_serve_metrics_c.db", 1024);
  QueryServiceConfig config;
  config.budget_bytes = 2048;
  auto opened = QueryService::open(path, config);
  ASSERT_TRUE(opened.ok) << opened.error;
  QueryService& service = *opened.service;
  ASSERT_EQ(service.index().version, 3);

  const obs::Snapshot before = obs::snapshot();
  (void)service.value(6, 0);
  (void)service.value(6, 1);
  std::vector<idx::Index> indices(100);
  std::iota(indices.begin(), indices.end(), idx::Index{0});
  std::vector<db::Value> out(indices.size());
  service.values(5, indices, out);
  service.values(6, indices, out);
  const obs::Snapshot delta = obs::snapshot() - before;

  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.lookups, 202u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.faults, 0u);
#if RETRA_METRICS_ENABLED
  EXPECT_EQ(delta[obs::Id::kServeLookups].value, stats.lookups);
  EXPECT_EQ(delta[obs::Id::kServeBlockHits].value, stats.hits);
  EXPECT_EQ(delta[obs::Id::kServeBlockFaults].value, stats.faults);
  EXPECT_EQ(delta[obs::Id::kServeBlockEvictions].value, stats.evictions);
  EXPECT_EQ(delta[obs::Id::kServeBlockDecodeSeconds].count, stats.faults);
#endif  // RETRA_METRICS_ENABLED

  bench::BenchRunMeta meta;
  meta.suite = "serve-test";
  meta.bench = "test_serve_blocked";
  meta.max_level = 6;
  meta.ranks = 1;
  std::string error;
  EXPECT_TRUE(
      bench::validate_bench_artifact(bench::micro_artifact_json(meta, delta),
                                     &error))
      << error;
  std::remove(path.c_str());
}

TEST(QueryService, ServesLevelLargerThanWholeBudget) {
  const std::string path = save_solved("retra_serve_oversize.db");
  QueryServiceConfig config;
  config.budget_bytes = 64;  // smaller than every level above 2
  auto opened = QueryService::open(path, config);
  ASSERT_TRUE(opened.ok) << opened.error;
  QueryService& service = *opened.service;
  // The just-touched level is never the eviction victim, so an oversized
  // level still answers (and is the only resident afterwards).
  EXPECT_EQ(service.value(6, 0), solved().value(6, 0));
  EXPECT_EQ(service.resident_levels(), (std::vector<int>{6}));
  EXPECT_GT(service.stats().resident_bytes, config.budget_bytes);
  // Touching another level evicts the oversized one.
  (void)service.value(5, 0);
  EXPECT_EQ(service.resident_levels(), (std::vector<int>{5}));
  std::remove(path.c_str());
}

TEST(QueryService, StatsReconcileWithObsMetricsAndArtifact) {
  const std::string path = save_solved("retra_serve_metrics.db");
  QueryServiceConfig config;
  config.budget_bytes = 4096;
  auto opened = QueryService::open(path, config);
  ASSERT_TRUE(opened.ok) << opened.error;
  QueryService& service = *opened.service;

  const obs::Snapshot before = obs::snapshot();
  (void)service.value(6, 0);
  (void)service.value(6, 1);
  std::vector<idx::Index> indices(100);
  std::iota(indices.begin(), indices.end(), idx::Index{0});
  std::vector<db::Value> out(indices.size());
  service.values(5, indices, out);
  service.values(6, indices, out);
  const obs::Snapshot delta = obs::snapshot() - before;

  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.lookups, 202u);
  EXPECT_EQ(stats.batches, 2u);
#if RETRA_METRICS_ENABLED
  // The obs delta tells the same story as the local mirror (under
  // -DRETRA_METRICS=OFF the macros publish nothing; only the local Stats
  // mirror and the artifact schema below are checked).  A whole level is
  // one block here, and the block-cache family counts it.
  EXPECT_EQ(delta[obs::Id::kServeLookups].value, stats.lookups);
  EXPECT_EQ(delta[obs::Id::kServeBlockFaults].value, stats.faults);
  EXPECT_EQ(delta[obs::Id::kServeBlockEvictions].value, stats.evictions);
  EXPECT_EQ(delta[obs::Id::kServeBatchSize].count, stats.batches);
  EXPECT_EQ(delta[obs::Id::kServeBatchSize].sum, 200u);
  EXPECT_EQ(delta[obs::Id::kServeBlockDecodeSeconds].count, stats.faults);
#endif  // RETRA_METRICS_ENABLED

  // And the same delta renders as a valid retra-bench-v1 micro artifact —
  // the exact pipeline bench_q1_query --json uses.
  bench::BenchRunMeta meta;
  meta.suite = "serve-test";
  meta.bench = "test_serve";
  meta.max_level = 6;
  meta.ranks = 1;
  std::string error;
  EXPECT_TRUE(
      bench::validate_bench_artifact(bench::micro_artifact_json(meta, delta),
                                     &error))
      << error;
  std::remove(path.c_str());
}

TEST(QueryService, UnlimitedBudgetNeverEvicts) {
  const std::string path = save_solved("retra_serve_unlimited.db");
  auto opened = QueryService::open(path);
  ASSERT_TRUE(opened.ok) << opened.error;
  QueryService& service = *opened.service;
  for (int level = 0; level < service.num_levels(); ++level) {
    (void)service.value(level, 0);
  }
  EXPECT_EQ(service.stats().evictions, 0u);
  EXPECT_EQ(service.stats().resident_bytes,
            service.index().total_decoded_bytes());
  std::remove(path.c_str());
}

/// A synthetic decoded block costing exactly `bytes` resident bytes.
db::CompactLevel synthetic_block(std::uint64_t bytes) {
  return db::CompactLevel::from_packed(2 * bytes, 4, 0,
                                       std::vector<std::uint8_t>(bytes));
}

/// Gets `key` from `cache`, loading a synthetic block of `bytes` on a
/// miss.
const BlockCache::Block& get_synthetic(BlockCache& cache,
                                       BlockCache::Key key,
                                       std::uint64_t bytes) {
  return cache.get(key, bytes, [bytes] { return synthetic_block(bytes); });
}

TEST(BlockCache, RetouchedBlockOutlivesTheLruVictim) {
  BlockCache cache(300);
  get_synthetic(cache, {1, 0}, 100);
  get_synthetic(cache, {1, 1}, 100);
  get_synthetic(cache, {2, 0}, 100);
  EXPECT_EQ(cache.keys(), (Keys{{2, 0}, {1, 1}, {1, 0}}));
  // Touch {1, 0} again, then fault a fourth block: the victim is {1, 1}.
  get_synthetic(cache, {1, 0}, 100);
  get_synthetic(cache, {3, 0}, 100);
  EXPECT_EQ(cache.keys(), (Keys{{3, 0}, {1, 0}, {2, 0}}));
}

TEST(BlockCache, EvictsBeforeLoadingSoResidencyNeverExceedsTheBudget) {
  constexpr std::uint64_t kBudget = 250;
  BlockCache cache(kBudget);
  int loads = 0;
  for (int block = 0; block < 8; ++block) {
    const std::uint64_t bytes = 60 + 20 * static_cast<std::uint64_t>(block % 3);
    (void)cache.get({0, block}, bytes, [&] {
      // Room is made before the load runs, not after it.
      EXPECT_LE(cache.stats().resident_bytes + bytes, kBudget);
      ++loads;
      return synthetic_block(bytes);
    });
    EXPECT_LE(cache.stats().resident_bytes, kBudget);
  }
  EXPECT_EQ(loads, 8);
  EXPECT_LE(cache.stats().peak_resident_bytes, kBudget);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BlockCache, OversizedBlockIsServedAlone) {
  BlockCache cache(100);
  get_synthetic(cache, {0, 0}, 40);
  get_synthetic(cache, {0, 1}, 40);
  // Larger than the whole budget: everything else goes, the block stays.
  const BlockCache::Block& big = get_synthetic(cache, {1, 0}, 400);
  EXPECT_EQ(big->memory_bytes(), 400u);
  EXPECT_EQ(cache.keys(), (Keys{{1, 0}}));
  EXPECT_EQ(cache.stats().resident_bytes, 400u);
  // The next fault evicts it in turn.
  get_synthetic(cache, {0, 0}, 40);
  EXPECT_EQ(cache.keys(), (Keys{{0, 0}}));
  EXPECT_EQ(cache.stats().resident_bytes, 40u);
}

TEST(BlockCache, CountsHitsFaultsAndEvictionsExactly) {
  BlockCache cache(200);
  for (const int block : {0, 1, 0, 2, 0, 1, 1}) {
    get_synthetic(cache, {5, block}, 100);
  }
  // 0 F, 1 F, 0 H, 2 F (evicts 1), 0 H, 1 F (evicts 2), 1 H.
  const BlockCache::Stats& stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.faults, 4u);
  EXPECT_EQ(stats.fault_bytes, 400u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_bytes, 200u);
  EXPECT_EQ(stats.peak_resident_bytes, 200u);
  EXPECT_EQ(cache.keys(), (Keys{{5, 1}, {5, 0}}));
}

}  // namespace
}  // namespace retra::serve
