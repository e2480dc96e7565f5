#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "legacy_fixtures.hpp"
#include "retra/db/database.hpp"
#include "retra/db/db_io.hpp"
#include "retra/db/db_stats.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/ra/builder.hpp"

namespace retra::db {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Copies `source` to a scratch path a test may damage.
std::string scratch_copy(const std::string& source, const char* name) {
  const std::string path = temp_path(name);
  std::filesystem::copy_file(source, path,
                             std::filesystem::copy_options::overwrite_existing);
  return path;
}

/// XORs the byte at `offset` of the file with `mask`.
void flip_byte(const std::string& path, std::uint64_t offset, char mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto at = static_cast<std::streamoff>(offset);
  char byte;
  file.seekg(at);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ mask);
  file.seekp(at);
  file.write(&byte, 1);
}

TEST(Database, PushAndQuery) {
  Database database;
  database.push_level(0, {0});
  database.push_level(1, {1, -1, 0});
  EXPECT_EQ(database.num_levels(), 2);
  EXPECT_TRUE(database.has_level(1));
  EXPECT_FALSE(database.has_level(2));
  EXPECT_EQ(database.value(1, 0), 1);
  EXPECT_EQ(database.value(1, 1), -1);
  EXPECT_EQ(database.total_positions(), 4u);
}

TEST(Database, EqualityIsDeep) {
  Database a, b;
  a.push_level(0, {1});
  b.push_level(0, {1});
  EXPECT_EQ(a, b);
  Database c;
  c.push_level(0, {2});
  EXPECT_NE(a, c);
}

TEST(DbIo, RoundTripNarrowValues) {
  Database database;
  database.push_level(0, {0});
  database.push_level(1, {5, -5, 0, 127, -128});
  const std::string path = temp_path("retra_narrow.db");
  save(database, path);
  EXPECT_EQ(scan(path).version, 3);
  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

TEST(DbIo, RoundTripWideValues) {
  Database database;
  database.push_level(0, {1000, -1000, 0});
  const std::string path = temp_path("retra_wide.db");
  save(database, path);
  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

TEST(DbIo, DetectsCorruption) {
  // A flipped payload byte in a legacy RTRADB01 file fails its level
  // checksum.
  const std::string path =
      scratch_copy(test::fixture_path("awari3.rtradb01"), "retra_corrupt.db");
  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  flip_byte(path, index.levels[3].payload_offset + 5, 0x5a);
  const LoadResult loaded = load(path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("checksum mismatch in level 3"),
            std::string::npos)
      << loaded.error;
  std::remove(path.c_str());
}

TEST(DbIo, SaveWritesRtradb03Only) {
  Database database;
  database.push_level(0, {1, 2});
  const std::string path = temp_path("retra_only_v3.db");
  EXPECT_DEATH(save(database, path, Format{.version = 2}), "RTRADB03 only");
  std::remove(path.c_str());
}

TEST(DbIo, RejectsMissingFile) {
  const LoadResult loaded = load(temp_path("retra_nonexistent.db"));
  EXPECT_FALSE(loaded.ok);
}

TEST(DbIo, RejectsBadMagic) {
  const std::string path = temp_path("retra_badmagic.db");
  {
    std::ofstream file(path, std::ios::binary);
    file << "NOTADB00garbage";
  }
  const LoadResult loaded = load(path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DbIo, ChecksumIsStable) {
  const char data[] = "retrograde";
  EXPECT_EQ(fnv1a(data, 10), fnv1a(data, 10));
  EXPECT_NE(fnv1a(data, 10), fnv1a(data, 9));
}

TEST(DbStats, CountsSigns) {
  Database database;
  database.push_level(0, {2, 0, 0, -1, 3});
  const LevelStats stats = level_stats(database, 0);
  EXPECT_EQ(stats.positions, 5u);
  EXPECT_EQ(stats.wins, 2u);
  EXPECT_EQ(stats.draws, 2u);
  EXPECT_EQ(stats.losses, 1u);
  EXPECT_EQ(stats.min_value, -1);
  EXPECT_EQ(stats.max_value, 3);
  EXPECT_DOUBLE_EQ(stats.mean_value, 0.8);
}

TEST(DbStats, HistogramMatchesStats) {
  Database database;
  database.push_level(0, {2, 0, 0, -1, 3});
  const auto histogram = level_histogram(database, 0, 3);
  EXPECT_EQ(histogram.total(), 5u);
  EXPECT_EQ(histogram.positive(), 2u);
  EXPECT_EQ(histogram.zero(), 2u);
  EXPECT_EQ(histogram.negative(), 1u);
  EXPECT_EQ(histogram.count_at(3), 1u);
}

TEST(DbIo, LegacyFixturesDecodeAllWidths) {
  // RTRADB01 stores one or two raw bytes per value, RTRADB02 packs at 4,
  // 8 or 16 bits; both decode to exactly the database they were written
  // from.
  struct Case {
    const char* fixture;
    int version;
    int bits[4];
    Value offset1;
  };
  for (const Case& c : {Case{"widths.rtradb01", 1, {8, 8, 8, 16}, 0},
                        Case{"widths.rtradb02", 2, {4, 4, 8, 16}, 3}}) {
    const std::string path = test::fixture_path(c.fixture);
    const FileIndex index = scan(path);
    ASSERT_TRUE(index.ok) << c.fixture << ": " << index.error;
    EXPECT_EQ(index.version, c.version);
    ASSERT_EQ(index.levels.size(), 4u);
    for (std::size_t l = 0; l < 4; ++l) {
      EXPECT_EQ(index.levels[l].bits, c.bits[l]) << c.fixture << " " << l;
      EXPECT_EQ(index.levels[l].raw, c.version == 1);
      EXPECT_EQ(index.levels[l].block_count(), 1);
    }
    EXPECT_EQ(index.levels[1].offset, c.offset1);

    const LoadResult loaded = load(path);
    ASSERT_TRUE(loaded.ok) << c.fixture << ": " << loaded.error;
    EXPECT_EQ(loaded.database, test::widths_database()) << c.fixture;
  }
}

TEST(DbIo, PackedDetectsCorruption) {
  const std::string path =
      scratch_copy(test::fixture_path("widths.rtradb02"),
                   "retra_packed_corrupt.db");
  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  // Flip the first payload byte of level 1.
  flip_byte(path, index.levels[1].payload_offset, 0x5a);
  const LoadResult loaded = load(path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("checksum"), std::string::npos)
      << loaded.error;
  std::remove(path.c_str());
}

TEST(DbIo, PackedRejectsTruncation) {
  const std::string path =
      scratch_copy(test::fixture_path("widths.rtradb02"),
                   "retra_packed_trunc.db");
  // Cut into the trailing checksum: the level's payload+checksum no
  // longer fit in the file, which scan() diagnoses structurally.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  const FileIndex index = scan(path);
  EXPECT_FALSE(index.ok);
  EXPECT_NE(index.error.find("truncated"), std::string::npos) << index.error;
  const LoadResult loaded = load(path);
  EXPECT_FALSE(loaded.ok);
  std::remove(path.c_str());
}

TEST(DbIo, ReadLevelExpandsEachLevel) {
  // scan() + read_level() on both legacy formats hand back exactly the
  // values the fixtures were written from, level by level; read_block()
  // of the one implicit block is the whole level.
  const auto built = ra::build_database(game::AwariFamily{}, 3);
  for (const char* fixture : {"awari3.rtradb01", "awari3.rtradb02"}) {
    std::FILE* file = std::fopen(test::fixture_path(fixture).c_str(), "rb");
    ASSERT_NE(file, nullptr) << fixture;
    const FileIndex index = scan(file);
    ASSERT_TRUE(index.ok) << index.error;
    ASSERT_EQ(index.levels.size(), 4u);
    for (int level = 0; level < 4; ++level) {
      const LevelLocation& location =
          index.levels[static_cast<std::size_t>(level)];
      const LevelReadResult read = read_level(file, location);
      ASSERT_TRUE(read.ok) << read.error;
      EXPECT_EQ(read.level.expand(), built.level(level)) << fixture;
      const LevelReadResult block = read_block(file, location, 0);
      ASSERT_TRUE(block.ok) << block.error;
      EXPECT_EQ(block.level.expand(), built.level(level)) << fixture;
    }
    std::fclose(file);
  }
}

TEST(DbIo, RejectsTrailingBytesAfterLastLevel) {
  // Flipping bit 2 of byte 8 turns the level count 4 into 0: the levels
  // become trailing bytes, which must not read as an empty database.
  const auto built = ra::build_database(game::AwariFamily{}, 3);
  const std::string written = temp_path("retra_trailing_v3.db");
  save(built, written);
  for (const std::string& source :
       {test::fixture_path("awari3.rtradb01"),
        test::fixture_path("awari3.rtradb02"), written}) {
    std::string path = scratch_copy(source, "retra_trailing.db");
    flip_byte(path, 8, 0x04);
    const FileIndex index = scan(path);
    EXPECT_FALSE(index.ok) << source;
    EXPECT_NE(index.error.find("trailing bytes"), std::string::npos)
        << source << ": " << index.error;
    EXPECT_FALSE(load(path).ok) << source;

    // One byte appended to an intact file is caught the same way.
    path = scratch_copy(source, "retra_trailing.db");
    std::ofstream(path, std::ios::binary | std::ios::app).put('\0');
    const FileIndex appended = scan(path);
    EXPECT_FALSE(appended.ok) << source;
    EXPECT_NE(appended.error.find("trailing bytes after level 3"),
              std::string::npos)
        << source << ": " << appended.error;
    std::remove(path.c_str());
  }
  std::remove(written.c_str());
}

TEST(DbIo, RejectsValueDecodingToUnknown) {
  // Level 0 is {0}, stored as code 0 under offset 0.  The i16 offset at
  // byte 8 + 4 + 8 + 1 = 21 is covered by no checksum; set to INT16_MIN
  // it decodes code 0 to kUnknown, which load() must diagnose rather
  // than abort on.
  const auto built = ra::build_database(game::AwariFamily{}, 3);
  const std::string written = temp_path("retra_unknown_v3.db");
  save(built, written);
  for (const std::string& source :
       {test::fixture_path("awari3.rtradb02"), written}) {
    const std::string path = scratch_copy(source, "retra_unknown.db");
    {
      std::fstream file(path,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(21);
      const char offset[2] = {0x00, static_cast<char>(0x80)};
      file.write(offset, 2);
    }
    const LoadResult loaded = load(path);
    EXPECT_FALSE(loaded.ok) << source;
    EXPECT_EQ(loaded.error, "unknown value in level 0") << source;
    std::remove(path.c_str());
  }
  std::remove(written.c_str());
}

TEST(DbIo, CompressedRoundTripAllSchemes) {
  // One level per scheme family: constant (rle), skewed (freq), plus a
  // wide level that stays raw, all in one RTRADB03 file.
  Database database;
  database.push_level(0, {0});
  database.push_level(1, std::vector<Value>(5000, 3));  // rle
  std::vector<Value> skewed;
  for (int i = 0; i < 5000; ++i) skewed.push_back(i % 11 == 0 ? 5 : -2);
  database.push_level(2, skewed);  // freq
  std::vector<Value> wide;
  for (int i = 0; i < 5000; ++i) {
    wide.push_back(static_cast<Value>((i * 7919) % 6007 - 3000));
  }
  database.push_level(3, wide);  // 16-bit, high entropy: raw

  const std::string path = temp_path("retra_compressed.db");
  save(database, path);

  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  EXPECT_EQ(index.version, 3);
  ASSERT_EQ(index.levels.size(), 4u);
  for (const LevelLocation& location : index.levels) {
    EXPECT_EQ(location.block_positions, kDefaultBlockPositions);
    EXPECT_EQ(location.block_count(),
              static_cast<int>((location.size + kDefaultBlockPositions - 1) /
                               kDefaultBlockPositions));
    EXPECT_LE(location.payload_bytes, location.decoded_bytes());
  }
  // The mix of schemes actually happened.
  EXPECT_EQ(index.levels[1].blocks[0].scheme, BlockScheme::kRle);
  EXPECT_EQ(index.levels[2].blocks[0].scheme, BlockScheme::kFreq);
  EXPECT_EQ(index.levels[3].blocks[0].scheme, BlockScheme::kRaw);
  EXPECT_LT(index.total_payload_bytes(), index.total_decoded_bytes());

  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

TEST(DbIo, CompressedMixedBlocksWithinOneLevel) {
  // Small blocks so one level spans several, each compressing its own
  // way: a constant stretch, a skewed stretch, and a noisy stretch.
  Database database;
  std::vector<Value> values;
  values.insert(values.end(), 200, 1);  // block 0: constant
  for (int i = 0; i < 200; ++i) {
    values.push_back(i % 13 == 0 ? 4 : 0);  // block 1: skewed
  }
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<Value>((i * 31) % 15));  // block 2: noisy
  }
  database.push_level(0, values);

  const std::string path = temp_path("retra_mixed_blocks.db");
  save(database, path, Format{.block_positions = 200});

  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  ASSERT_EQ(index.levels.size(), 1u);
  const LevelLocation& location = index.levels[0];
  EXPECT_EQ(location.block_positions, 200u);
  ASSERT_EQ(location.block_count(), 3);
  EXPECT_EQ(location.blocks[0].scheme, BlockScheme::kRle);
  EXPECT_EQ(location.blocks[1].scheme, BlockScheme::kFreq);
  EXPECT_EQ(location.blocks[2].scheme, BlockScheme::kRaw);

  // read_block hands back each block indexed from its first position.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  for (int b = 0; b < 3; ++b) {
    const LevelReadResult read = read_block(file, location, b);
    ASSERT_TRUE(read.ok) << read.error;
    const std::uint64_t begin = location.block_begin(b);
    for (std::uint64_t i = 0; i < 200; ++i) {
      ASSERT_EQ(read.level.get(i), values[static_cast<std::size_t>(begin + i)])
          << "block " << b << " position " << i;
    }
  }
  std::fclose(file);

  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

TEST(DbIo, CompressedDetectsPerBlockCorruption) {
  Database database;
  std::vector<Value> values;
  for (int i = 0; i < 600; ++i) values.push_back(i % 13 == 0 ? 4 : 0);
  database.push_level(0, values);
  const std::string path = temp_path("retra_compressed_corrupt.db");
  save(database, path, Format{.block_positions = 200});
  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  const LevelLocation& location = index.levels[0];
  ASSERT_EQ(location.block_count(), 3);
  // Flip a byte inside block 1's stored bytes.
  flip_byte(path, location.blocks[1].offset + 1, 0x5a);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  // The corrupt block is diagnosed with its block number...
  const LevelReadResult bad = read_block(file, location, 1);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("block 1"), std::string::npos) << bad.error;
  // ...while its neighbours still decode: corruption is block-local.
  EXPECT_TRUE(read_block(file, location, 0).ok);
  EXPECT_TRUE(read_block(file, location, 2).ok);
  std::fclose(file);
  const LoadResult loaded = load(path);
  EXPECT_FALSE(loaded.ok);
  std::remove(path.c_str());
}

TEST(DbIo, CompressedRejectsDirectoryCorruption) {
  Database database;
  database.push_level(0, std::vector<Value>(500, 2));
  const std::string path = temp_path("retra_dir_corrupt.db");
  save(database, path);
  // The directory starts right after the fixed level header:
  // magic(8) + count(4) + size(8) + bits(1) + offset(2) +
  // block_positions(4) + block_count(4) + payload_bytes(8) = 39.
  // Flip the scheme tag of entry 0.
  flip_byte(path, 39, 0x01);
  const FileIndex index = scan(path);
  EXPECT_FALSE(index.ok);
  EXPECT_NE(index.error.find("directory checksum"), std::string::npos)
      << index.error;
  std::remove(path.c_str());
}

TEST(DbIo, CompressedRejectsTruncation) {
  Database database;
  std::vector<Value> values;
  for (int i = 0; i < 900; ++i) values.push_back(i % 7 == 0 ? 3 : -1);
  database.push_level(0, values);
  const std::string path = temp_path("retra_compressed_trunc.db");
  save(database, path, Format{.block_positions = 300});
  // Cut into the last block's stored bytes: the payload no longer fits.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 2);
  const FileIndex index = scan(path);
  EXPECT_FALSE(index.ok);
  EXPECT_NE(index.error.find("truncated"), std::string::npos) << index.error;
  std::remove(path.c_str());
}

TEST(DbIo, CompressedRejectsBadGeometry) {
  Database database;
  database.push_level(0, std::vector<Value>(100, 1));
  const std::string path = temp_path("retra_bad_geometry.db");
  save(database, path);
  {
    // block_positions lives at offset 8+4+8+1+2 = 23; make it odd.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(23);
    const char odd = 0x01;
    file.write(&odd, 1);
  }
  const FileIndex index = scan(path);
  EXPECT_FALSE(index.ok);
  EXPECT_NE(index.error.find("geometry"), std::string::npos) << index.error;
  std::remove(path.c_str());
}

TEST(DbIo, CompressedStrictlySmallerOnAwari) {
  // The acceptance check: the real database compresses, end to end — the
  // whole file, headers and directories included, is smaller than its
  // bit-packed levels alone.
  const auto database = ra::build_database(game::AwariFamily{}, 5);
  const std::string path = temp_path("retra_awari_compressed.db");
  save(database, path);
  const FileIndex index = scan(path);
  ASSERT_TRUE(index.ok) << index.error;
  EXPECT_LT(std::filesystem::file_size(path), index.total_decoded_bytes());
  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

TEST(DbIo, LegacyAwariFixturesLoadAsBuilt) {
  const auto built = ra::build_database(game::AwariFamily{}, 3);
  for (const char* fixture : {"awari3.rtradb01", "awari3.rtradb02"}) {
    const LoadResult loaded = load(test::fixture_path(fixture));
    ASSERT_TRUE(loaded.ok) << fixture << ": " << loaded.error;
    EXPECT_EQ(loaded.database, built) << fixture;
  }
}

TEST(DbIo, AwariDatabaseSurvivesRoundTrip) {
  const auto database = ra::build_database(game::AwariFamily{}, 4);
  const std::string path = temp_path("retra_awari.db");
  save(database, path);
  const LoadResult loaded = load(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.database, database);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace retra::db
