// Database persistence.
//
// save() writes one format, RTRADB03 (docs/FORMAT.md is the byte-level
// reference; retra/db/format.hpp holds the shared constants): the
// bit-packed level split into fixed-size blocks, each stored raw or
// compressed under a per-block scheme (BlockScheme), fronted by a block
// directory so a point lookup reads and decodes exactly one block:
//
//   magic "RTRADB03" | u32 level count
//   per level: u64 size | u8 bits | i16 offset | u32 block positions |
//              u32 block count | u64 payload bytes |
//              directory (per block: u8 scheme | u32 stored bytes |
//              u64 offset | u64 checksum) | u64 directory checksum
//              (over the header fields and the directory) |
//              concatenated stored blocks
//
// The readers also accept the two legacy formats earlier versions wrote,
// each level read as one implicit block:
//
//   RTRADB01 — raw values, one or two bytes each:
//     per level: u64 size | u8 width (1 or 2 bytes) | payload | u64 checksum
//   RTRADB02 — offset-coded bit-packed values:
//     per level: u64 size | u8 bits (4, 8 or 16) | i16 offset |
//                u64 payload bytes | payload | u64 checksum
//
// scan()/read_level()/read_block() expose the level directory without
// materialising payloads — the serving layer
// (retra/serve/file_source.hpp) uses them for on-demand residency.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "retra/db/compact.hpp"
#include "retra/db/database.hpp"
#include "retra/db/format.hpp"

namespace retra::db {

/// How save() lays out its RTRADB03 file.
struct Format {
  /// Must be 3: save() writes RTRADB03 only and rejects any other value.
  /// The field stays so that callers spelling the version out
  /// (`Format{.version = 3}`) keep compiling.
  int version = 3;
  /// Positions per block; must be even and at most kMaxBlockPositions.
  std::uint32_t block_positions = kDefaultBlockPositions;
};

/// Writes the database as RTRADB03; aborts on I/O failure (callers are
/// CLI tools).
void save(const Database& database, const std::string& path,
          const Format& format = {});

/// Result of load(): either a database or a diagnosis of why the file was
/// rejected (missing, malformed, checksum mismatch, trailing bytes, a
/// value decoding to kUnknown).
struct LoadResult {
  bool ok = false;
  std::string error;
  Database database;
};

LoadResult load(const std::string& path);

/// One block's placement inside an RTRADB03 level, as recorded by scan().
struct BlockLocation {
  BlockScheme scheme = BlockScheme::kRaw;
  std::uint64_t offset = 0;  // absolute byte offset of the stored bytes
  std::uint32_t stored_bytes = 0;
  std::uint64_t checksum = 0;  // stored FNV-1a of the stored bytes
};

/// One level's placement inside an RTRADB file, as recorded by scan().
struct LevelLocation {
  int level = 0;
  std::uint64_t size = 0;      // positions
  int bits = 16;               // stored bits per value (8/16 for RTRADB01)
  bool raw = false;            // RTRADB01: payload is raw int8/int16 values
  Value offset = 0;            // pack offset (0 for RTRADB01)
  std::uint64_t payload_offset = 0;  // byte offset of the payload
  std::uint64_t payload_bytes = 0;   // stored bytes (post-compression for v3)
  std::uint64_t checksum = 0;  // v1/v2 stored FNV-1a (0 for v3: per block)
  std::uint32_t block_positions = 0;  // v3 positions per block (0 for v1/v2)
  std::vector<BlockLocation> blocks;  // v3 block directory (empty for v1/v2)

  /// Cacheable units in this level: the directory blocks for RTRADB03,
  /// one whole-level block for RTRADB01/02.
  int block_count() const;
  /// First position covered by block `block`.
  std::uint64_t block_begin(int block) const;
  /// Positions covered by block `block` (the last block may be short).
  std::uint64_t block_size(int block) const;
  /// Resident cost of block `block` once decoded to bit-packed form —
  /// what a block cache charges against its byte budget.  For RTRADB01/02
  /// this is the whole-level payload_bytes.
  std::uint64_t block_decoded_bytes(int block) const;
  /// Sum of block_decoded_bytes over all blocks.
  std::uint64_t decoded_bytes() const;
};

/// The level directory of an RTRADB file: everything needed to seek to
/// and decode any level, built by reading headers only (payloads are
/// skipped, so scanning a multi-gigabyte database touches a few KB).
struct FileIndex {
  bool ok = false;
  std::string error;
  int version = 0;  // 1, 2 or 3
  std::vector<LevelLocation> levels;

  /// Sum of payload_bytes — the on-disk cost of all level payloads
  /// (compressed for RTRADB03).
  std::uint64_t total_payload_bytes() const;
  /// Sum of decoded (bit-packed) bytes — the cost of everything resident
  /// at once.  Equals total_payload_bytes() for RTRADB02.
  std::uint64_t total_decoded_bytes() const;
};

/// Scans the level directory of `file` (rewinds first).  Structural
/// problems — bad magic, truncated headers, bad block directories,
/// payloads running past the end of the file — are diagnosed here;
/// payload corruption is only caught by the checksum verification in
/// read_level()/read_block().
FileIndex scan(std::FILE* file);
FileIndex scan(const std::string& path);

/// Result of read_level()/read_block(): the data in packed (serving)
/// form.
struct LevelReadResult {
  bool ok = false;
  std::string error;
  CompactLevel level;
};

/// Reads, checksum-verifies and unpacks one level located by scan() from
/// the same file.  RTRADB02 payloads are adopted as-is; RTRADB03 blocks
/// are decoded and concatenated; RTRADB01 raw payloads are decoded and
/// re-packed at the narrowest width.
LevelReadResult read_level(std::FILE* file, const LevelLocation& location);

/// Reads, checksum-verifies and decodes one block of a level.  The
/// returned CompactLevel holds location.block_size(block) values indexed
/// from 0 — position p of the level lives at p - block_begin(block).
/// For RTRADB01/02 the only block (0) is the whole level.
LevelReadResult read_block(std::FILE* file, const LevelLocation& location,
                           int block);

/// Scans and reads a file that must hold exactly one level (a spilled
/// shard or a checkpoint shard); diagnoses any other level count.
LevelReadResult read_only_level(const std::string& path);

/// FNV-1a over a byte range; exposed for tests.
std::uint64_t fnv1a(const void* data, std::size_t size);

}  // namespace retra::db
