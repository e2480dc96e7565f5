// A plain block reader over one RTRADB file.
//
// open() scans the RTRADB level directory (headers only — a few KB even
// for a multi-gigabyte database).  After that the reader answers block
// geometry questions from the directory and reads, checksum-verifies
// and decodes one block per read_block() call: the whole level for
// RTRADB01/02 (one implicit block per level) and a single fixed-size
// block for RTRADB03.  RTRADB02 payloads are adopted verbatim; RTRADB01
// raw payloads are re-packed; RTRADB03 blocks are decoded to bit-packed
// form.  It keeps nothing it reads: caching decoded blocks is
// BlockCache's job.
//
// Not thread-safe: reads share one FILE*.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "retra/db/compact.hpp"
#include "retra/db/db_io.hpp"
#include "retra/index/board_index.hpp"

namespace retra::serve {

class FileSource {
 public:
  /// Result of open(): either a ready reader or a diagnosis of why the
  /// file was rejected (missing, malformed, truncated).
  struct OpenResult {
    bool ok = false;
    std::string error;
    std::unique_ptr<FileSource> source;
  };
  static OpenResult open(const std::string& path);

  ~FileSource();
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  int num_levels() const { return static_cast<int>(index_.levels.size()); }
  bool covers(int level) const { return level >= 0 && level < num_levels(); }
  std::uint64_t level_size(int level) const;

  /// The scanned level directory (format version, offsets, sizes).
  const db::FileIndex& index() const { return index_; }

  /// Blocks in `level` (1 for RTRADB01/02).
  int block_count(int level) const;
  /// The block holding position `index` of `level` (0 for RTRADB01/02).
  int block_of(int level, idx::Index index) const;
  /// First position covered by block `block` of `level`.
  std::uint64_t block_begin(int level, int block) const;
  /// Scan-time estimate of the decoded bytes of block `block` — what a
  /// cache charges before reading it.  Exact for RTRADB02/03; the raw
  /// stored width for RTRADB01, which overstates the packed size.
  std::uint64_t block_decoded_bytes(int level, int block) const;

  /// Reads and decodes block `block` of `level`; aborts if the stored
  /// bytes fail their checksum or decode (open() already vetted the
  /// file's structure).  The result is indexed from the block's first
  /// position — subtract block_begin() before get().
  db::CompactLevel read_block(int level, int block);

 private:
  struct Passkey {};  // lets open() use make_unique on a private-ish ctor

 public:
  FileSource(Passkey, std::FILE* file, db::FileIndex index);

 private:
  const db::LevelLocation& location(int level) const;

  std::FILE* file_ = nullptr;
  db::FileIndex index_;
};

}  // namespace retra::serve
